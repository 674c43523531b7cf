package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"frontsim/internal/core"
	"frontsim/internal/experiment"
	"frontsim/internal/runner"
	"frontsim/internal/serve"
	"frontsim/internal/workload"
)

// The serve-mix request mix. Warm cells are filled during set-up and then
// hit repeatedly. Cold cells are base-program cells (every workload under
// every base series) requested once each, so each is simulated, and its
// program built, on its first request. The mix is the same throughout a
// run: every block of the sequence is warmGap warm hits and one cold
// request, and every dupEvery-th cold request is issued twice back to back,
// so the two clients send it together and the second coalesces onto the
// first. Cold cells come in rounds: each round requests every workload
// once and every series equally often, so the cost mix of cold cells does
// not depend on the seed, only their order does. Warm and cold cells use
// different budgets, so no cold cell is ever in the warm set.
const (
	warmSetSize = 16
	warmGap     = 1000
	dupEvery    = 6
	blockLen    = warmGap + 2 // the last slot repeats the cold request or is a warm hit
	coldRounds  = 24          // rounds precomputed: far more cold cells than a run reaches
)

func warmBudgets(r *serve.CellRequest) {
	r.WarmupInstrs, r.MeasureInstrs, r.ProfileInstrs = 20_000, 40_000, 80_000
}

// coldBudgets sets a cold cell's budgets. Rounds past the first
// len(series) reuse (workload, series) pairs with a longer measurement,
// which keeps every cold cell distinct.
func coldBudgets(r *serve.CellRequest, variant int) {
	r.WarmupInstrs, r.MeasureInstrs, r.ProfileInstrs = 20_000, 60_000+int64(variant)*1_000, 80_000
}

// mixRequest is one request of the sequence.
type mixRequest struct {
	req  serve.CellRequest
	cold bool
}

// mixSequence is the seeded, endless request sequence.
type mixSequence struct {
	seed uint64
	warm []serve.CellRequest
	cold []serve.CellRequest // cold cells in request order, round by round
}

func newMixSequence(seed uint64) *mixSequence {
	r := &rng{s: seed}
	var series []string
	for _, m := range experiment.Mechanisms() {
		series = append(series, m.Label)
	}
	names := workload.Names()
	s := &mixSequence{seed: seed}

	// The warm set spans the suite (every third workload), so filling it
	// costs about the same whatever the seed; the seed picks the series.
	for i := 0; i < warmSetSize; i++ {
		req := serve.CellRequest{Workload: names[i*len(names)/warmSetSize], Series: series[r.intn(len(series))]}
		warmBudgets(&req)
		s.warm = append(s.warm, req)
	}
	// offset[w]: workload w's series in round 0; each series is the offset
	// of the same number of workloads, and round k shifts every offset by
	// k, so every round uses every series equally often.
	order := r.perm(len(names))
	offset := make([]int, len(names))
	for i, w := range order {
		offset[w] = i % len(series)
	}
	for round := 0; round < coldRounds; round++ {
		for _, w := range r.perm(len(names)) {
			req := serve.CellRequest{Workload: names[w], Series: series[(offset[w]+round)%len(series)]}
			coldBudgets(&req, round/len(series))
			s.cold = append(s.cold, req)
		}
	}
	return s
}

// at returns request i of the sequence.
func (s *mixSequence) at(i int) mixRequest {
	b, j := i/blockLen, i%blockLen
	if j == warmGap || j == warmGap+1 && b%dupEvery == 0 {
		return mixRequest{req: s.cold[b%len(s.cold)], cold: true}
	}
	return mixRequest{req: s.warm[splitmix(s.seed^uint64(i))%uint64(len(s.warm))]}
}

// mixServer is an in-process serve.Server on a loopback listener.
type mixServer struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
	params experiment.Params // what ProbeCell needs to address its cells
}

// reqHeader carries a traced request's id from client to handler.
const reqHeader = "X-Perfbench-Req"

func startMixServer(e *env, tr *tracer) (*mixServer, error) {
	dir, err := e.freshDir("serve-cache-")
	if err != nil {
		return nil, err
	}
	c, err := runner.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	p := e.params()
	srv := serve.New(serve.Options{Params: p, Cache: c, Workers: workers, MaxConcurrent: workers})
	var h http.Handler = srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			id := tr.begin("serve.handler", 0, req)
			inner.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	m := &mixServer{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(),
		served: make(chan error, 1)}
	p.Cache = c
	m.params = p
	go func() { m.served <- m.hs.Serve(ln) }()
	return m, nil
}

// stop shuts the listener, drains the server and waits for both.
func (m *mixServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := m.hs.Shutdown(ctx)
	if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := m.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	m.srv.Close()
	return err
}

// probe returns the canonical bytes and address experiment.ProbeCell
// holds for a served cell: the reference every response must match.
func (m *mixServer) probe(req serve.CellRequest) ([]byte, string, error) {
	spec, ok := workload.Lookup(req.Workload)
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", req.Workload)
	}
	p := m.params
	p.WarmupInstrs, p.MeasureInstrs, p.ProfileInstrs = req.WarmupInstrs, req.MeasureInstrs, req.ProfileInstrs
	st, addr, ok, err := experiment.ProbeCell(spec, req.Series, p)
	if err != nil {
		return nil, "", err
	}
	if !ok {
		return nil, addr, fmt.Errorf("cell %s/%s is not in the run cache", req.Workload, req.Series)
	}
	b, err := st.CanonicalJSON()
	return b, addr, err
}

// loadClients are the two closed-loop clients. They share one transport
// that never holds more than `workers` connections.
type loadClients struct {
	clients [workers]*serve.Client
	dials   atomic.Int64
	tr      *http.Transport
}

type reqIDKey struct{}

// reqIDTransport stamps a traced request's id into its header.
type reqIDTransport struct{ base http.RoundTripper }

func (t reqIDTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(reqIDKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

func newLoadClients(url string) *loadClients {
	lc := &loadClients{}
	dialer := &net.Dialer{}
	lc.tr = &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			lc.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	hc := &http.Client{Transport: reqIDTransport{lc.tr}}
	for i := range lc.clients {
		// One attempt: a refused or failed request counts as failed
		// instead of being retried out of sight.
		lc.clients[i] = &serve.Client{BaseURL: url, HTTPClient: hc, MaxAttempts: 1}
	}
	return lc
}

func (lc *loadClients) close() { lc.tr.CloseIdleConnections() }

// loadResult is what one load run observed.
type loadResult struct {
	warm, cold        []float64 // client-observed latencies, ms
	attempted, failed int
	wall              time.Duration
	coldBytes         map[string][]byte // fingerprint -> first served bytes
	coldReq           map[string]serve.CellRequest
}

// runLoad drives the sequence through both clients, each sending its
// next request when the previous one returns, until limit requests were
// sent (limit > 0) or the deadline passed (non-zero deadline). Each
// response must be a 200 whose bytes match the reference: the warm set's
// ProbeCell bytes, or for a cold cell the first answer for the same
// fingerprint (which the caller then checks against ProbeCell).
func runLoad(seq *mixSequence, lc *loadClients, warmRef map[string][]byte, limit int, deadline time.Time,
	tr *tracer, log func(format string, args ...any)) *loadResult {
	lr := &loadResult{coldBytes: map[string][]byte{}, coldReq: map[string]serve.CellRequest{}}
	var (
		cursor atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	t0 := time.Now()
	for ci := range lc.clients {
		wg.Add(1)
		go func(cl *serve.Client) {
			defer wg.Done()
			var warm, cold []float64
			attempted, failed := 0, 0
			for {
				i := int(cursor.Add(1) - 1)
				if limit > 0 && i >= limit || !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				r := seq.at(i)
				ctx := context.Background()
				var id int64
				if tr != nil {
					ctx = context.WithValue(ctx, reqIDKey{}, int64(i+1))
					id = tr.begin("client.cell", 0, int64(i+1))
				}
				start := time.Now()
				resp, err := cl.Cell(ctx, r.req)
				lat := millis(time.Since(start))
				tr.end(id)
				attempted++
				ok := err == nil
				if ok && r.cold {
					cold = append(cold, lat)
					mu.Lock()
					if b, seen := lr.coldBytes[resp.Fingerprint]; seen {
						ok = bytes.Equal(b, resp.Stats)
					} else {
						lr.coldBytes[resp.Fingerprint] = append([]byte(nil), resp.Stats...)
						lr.coldReq[resp.Fingerprint] = r.req
					}
					mu.Unlock()
					// A cold cell leaves its simulator behind as garbage;
					// collecting it here, outside any timing, keeps peak
					// memory from depending on when the collector ran.
					runtime.GC()
				} else if ok {
					warm = append(warm, lat)
					ok = bytes.Equal(warmRef[resp.Fingerprint], resp.Stats)
				}
				if !ok {
					failed++
					log("request %d (%s/%s cold=%v) failed: err=%v", i, r.req.Workload, r.req.Series, r.cold, err)
				}
			}
			mu.Lock()
			lr.warm = append(lr.warm, warm...)
			lr.cold = append(lr.cold, cold...)
			lr.attempted += attempted
			lr.failed += failed
			mu.Unlock()
		}(lc.clients[ci])
	}
	wg.Wait()
	lr.wall = time.Since(t0)
	return lr
}

// mixSetup starts a server and fills the warm set through the clients,
// recording the warm set's reference bytes by fingerprint.
func mixSetup(e *env, seq *mixSequence, tr *tracer) (mixInstance, error) {
	m, err := startMixServer(e, tr)
	if err != nil {
		return mixInstance{}, err
	}
	mi := mixInstance{m: m, lc: newLoadClients(m.url), ref: map[string][]byte{}}
	err = parallel(len(seq.warm), func(i int) error {
		_, err := mi.lc.clients[i%workers].Cell(context.Background(), seq.warm[i])
		runtime.GC() // as after a cold cell in runLoad
		return err
	})
	if err != nil {
		mi.close()
		return mixInstance{}, fmt.Errorf("filling the warm set: %w", err)
	}
	for _, req := range seq.warm {
		b, addr, err := m.probe(req)
		if err != nil {
			mi.close()
			return mixInstance{}, err
		}
		mi.ref[addr] = b
	}
	return mi, nil
}

type mixInstance struct {
	m   *mixServer
	lc  *loadClients
	ref map[string][]byte
}

func (mi mixInstance) close() error {
	mi.lc.close()
	return mi.m.stop()
}

// digestCold is how many cold cells, from the start of the sequence, the
// canonical-stats digest covers: one round, which every run serves.
const digestCold = 48

// verifyCold checks every cold cell's served bytes against ProbeCell and
// returns the canonical-stats digest of the warm set and the first
// digestCold cold cells, with the number of cold cells it covers (fewer
// only when the run served fewer).
func verifyCold(e *env, res *result, m *mixServer, seq *mixSequence, lr *loadResult) (string, int, error) {
	for fp, b := range lr.coldBytes {
		want, addr, err := m.probe(lr.coldReq[fp])
		if err != nil {
			return "", 0, err
		}
		res.check(e.log, addr == fp && bytes.Equal(want, b), "served cold cell %s differs from ProbeCell", fp)
	}
	// Clients finish every request they take, so the served cold cells
	// are a prefix of the sequence's.
	n := min(digestCold, len(lr.coldBytes))
	var sts []core.Stats
	for _, req := range append(append([]serve.CellRequest(nil), seq.warm...), seq.cold[:n]...) {
		b, _, err := m.probe(req)
		if err != nil {
			return "", 0, err
		}
		st, err := core.StatsFromJSON(b)
		if err != nil {
			return "", 0, err
		}
		sts = append(sts, st)
	}
	dg, err := statsDigest(sts)
	return dg, n, err
}

// runServeMix runs the mix against an in-process server on loopback.
// Cold: cold_cell latency; warm: warm_hit latency.
func runServeMix(e *env) (*result, error) {
	seq := newMixSequence(e.seed)
	mi, setupS, err := setupTimes(setupRepeats, func() (mixInstance, error) { return mixSetup(e, seq, nil) },
		func(mi mixInstance) { mi.close() })
	if err != nil {
		return nil, err
	}
	res := newResult()
	lr := runLoad(seq, mi.lc, mi.ref, 0, e.deadline(time.Now()), nil, func(f string, a ...any) {
		fmt.Fprintf(e.log, f+"\n", a...)
	})
	res.attempted += lr.attempted
	res.failed += lr.failed
	dg, ndg, verr := verifyCold(e, res, mi.m, seq, lr)
	ms := mi.m.srv.MetricSet()
	cerr := mi.close()
	if verr != nil {
		return nil, verr
	}
	if cerr != nil {
		return nil, cerr
	}
	res.check(e.log, mi.lc.dials.Load() <= workers, "load generator opened %d connections", mi.lc.dials.Load())
	res.check(e.log, len(lr.warm) >= tailSamples && len(lr.cold) > 0, "too few samples: %d warm, %d cold", len(lr.warm), len(lr.cold))
	if len(lr.warm) == 0 || len(lr.cold) == 0 {
		return nil, errors.New("no latency samples")
	}

	fmt.Fprintf(e.log, "workload serve-mix: %d warm cells, one cold cell per %d warm hits (one in %d requested twice), 2 closed-loop clients, seed %d\n",
		len(seq.warm), warmGap, dupEvery, e.seed)
	fmt.Fprintf(e.log, "setup_s (CPU)          %.4g s\n", setupS)
	logTiming(e.log, "warm_hit_ms", "ms", lr.warm)
	logTiming(e.log, "cold_cell_ms", "ms", lr.cold)
	fmt.Fprintf(e.log, "cold_cell_p90_ms       %.4g ms  (n=%d)\n", percentile(lr.cold, 90), len(lr.cold))
	fmt.Fprintf(e.log, "requests %d in %.4g s, %d failed, %d connections\n", lr.attempted, lr.wall.Seconds(), lr.failed, mi.lc.dials.Load())
	for _, m := range ms {
		if m.Name == "simd_cells_total" && len(m.Labels) == 1 {
			fmt.Fprintf(e.log, "served from %-10s %d\n", m.Labels[0].Value, int64(m.Value))
		}
	}
	fmt.Fprintf(e.log, "canonical-stats digest %s  (%d warm + %d cold cells)\n", dg, len(seq.warm), ndg)
	res.metrics["setup_s"] = setupS
	res.metrics["cold_ms"] = median(lr.cold)
	res.metrics["warm_ms"] = median(lr.warm)
	res.metrics["warm_p90_ms"] = percentile(lr.warm, 90)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

// tracedBlocks is how many blocks of the sequence a traced run sends.
const tracedBlocks = 24

// tracedServeMix sends the sequence's first tracedBlocks blocks twice, on
// fresh servers, first untraced and then with client and handler spans
// sharing each request's id; their wall-time difference is the tracing
// overhead. The layer microbenchmarks run on the suite's server workload.
func tracedServeMix(e *env) (*result, error) {
	seq := newMixSequence(e.seed)
	res := newResult()
	logf := func(f string, a ...any) { fmt.Fprintf(e.log, f+"\n", a...) }
	const limit = tracedBlocks * blockLen

	mi, err := mixSetup(e, seq, nil)
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	lr := runLoad(seq, mi.lc, mi.ref, limit, time.Time{}, nil, logf)
	res.metrics["runner.worker_busy_share"] = busyShare(cpuTime()-cpu0, lr.wall)
	res.attempted += lr.attempted
	res.failed += lr.failed
	if err := mi.close(); err != nil {
		return nil, err
	}

	stop, err := startProfile(e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	mi, err = mixSetup(e, seq, tr)
	if err != nil {
		stop()
		return nil, err
	}
	lt := runLoad(seq, mi.lc, mi.ref, limit, time.Time{}, tr, logf)
	res.attempted += lt.attempted
	res.failed += lt.failed
	_, _, verr := verifyCold(e, res, mi.m, seq, lt)
	cerr := mi.close()
	if verr != nil || cerr != nil {
		stop()
		return nil, errors.Join(verr, cerr)
	}
	res.metrics["trace.overhead_ms"] = millis(lt.wall - lr.wall)
	fmt.Fprintf(e.log, "first %d requests: untraced %.4g s, traced %.4g s\n",
		limit, lr.wall.Seconds(), lt.wall.Seconds())

	specs, err := lookupSpecs([]string{"secret_srv12"})
	if err != nil {
		stop()
		return nil, err
	}
	var st stageTimes
	if _, err := stagedMatrix(tr, 0, specs[0], e.params(), false, &st, true); err != nil {
		stop()
		return nil, err
	}
	st.report(res)
	if err := measureLayers(e, tr, specs, res); err != nil {
		stop()
		return nil, err
	}
	serveCounters(mi.m.srv, res)
	if err := finishTraced(e, "serve-mix", tr, stop, res); err != nil {
		return nil, err
	}
	return res, nil
}
