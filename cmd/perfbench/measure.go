package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"frontsim/internal/core"
)

// setupRepeats is how often a workload repeats its set-up per run; setup_s
// is the median, so one slow repeat does not move it.
const setupRepeats = 3

// tailSamples is the sample count a p90 needs: ten samples beyond it.
const tailSamples = 100

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing the rank one past the intended sample.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// reportablePercentiles are the tail percentiles a report may name.
var reportablePercentiles = []float64{99.9, 99, 90, 50}

// highestPercentile returns the highest reportable percentile that leaves at
// least ten of n samples beyond it, and false when n is too small for any.
func highestPercentile(n int) (float64, bool) {
	for _, p := range reportablePercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// logTiming prints a timing as its median and highest reportable
// percentile, with the sample count.
func logTiming(w io.Writer, name, unit string, xs []float64) {
	line := fmt.Sprintf("%-22s p50 %.4g %s", name, median(xs), unit)
	if p, ok := highestPercentile(len(xs)); ok && p > 50 {
		line += fmt.Sprintf(", p%g %.4g %s", p, percentile(xs, p), unit)
	}
	fmt.Fprintf(w, "%s  (n=%d)\n", line, len(xs))
}

// millis converts a duration to milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitmix is the SplitMix64 finalizer: a seed scrambler.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// execSalt maps the benchmark seed to experiment.Params.ExecSeedSalt: a
// different dynamic path through the same programs per seed. Never zero,
// which the serving layer reads as "use the default".
func execSalt(seed uint64) uint64 { return splitmix(seed) | 1 }

// rng is a deterministic generator for seeded workload inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return splitmix(r.s)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// busyShare is CPU time over wall time times workers: how much of the
// machine the measured span kept busy.
func busyShare(cpu, wall time.Duration) float64 {
	return float64(cpu) / (float64(wall) * workers)
}

// statsDigest hashes the canonical JSON of a sequence of stats snapshots,
// so two runs with identical simulated statistics print the same digest.
func statsDigest(sts []core.Stats) (string, error) {
	h := sha256.New()
	for _, st := range sts {
		b, err := st.CanonicalJSON()
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cost is what one operation took: wall time, and the CPU time the
// process spent on it (every thread, user and system). CPU time leaves out
// time the hypervisor steals from the VM, which on the reference host
// slowed wall time by up to 2x for stretches of ten seconds while CPU time
// moved by 5% (README.md), so the benchmark gates on CPU time wherever one
// operation owns the process.
type cost struct{ wall, cpu time.Duration }

// measure runs fn and returns its cost.
func measure(fn func() error) (cost, error) {
	w0, c0 := time.Now(), cpuTime()
	err := fn()
	return cost{wall: time.Since(w0), cpu: cpuTime() - c0}, err
}

// setupTimes runs one set-up repeatedly and returns the median of its CPU
// time in seconds, keeping the last instance and closing the others.
func setupTimes[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		var v T
		c, err := measure(func() (err error) {
			v, err = setup()
			return err
		})
		if err != nil {
			return last, 0, err
		}
		times = append(times, c.cpu.Seconds())
		if i > 0 {
			release(last)
		}
		last = v
	}
	return last, median(times), nil
}

// freshDir makes a new empty directory under the run's scratch directory.
func (e *env) freshDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.dir, prefix)
}

// tracePath is where a traced run writes its span dump.
func (e *env) tracePath(workload string) (string, error) {
	if err := os.MkdirAll(e.traceDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(e.traceDir, fmt.Sprintf("%s-seed%d.json", workload, e.seed)), nil
}
