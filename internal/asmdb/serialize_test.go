package asmdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"frontsim/internal/isa"
)

// samePlan reports whether a and b are equal bit for bit. reflect.DeepEqual
// would call two NaN probabilities different and 0 and -0 the same.
func samePlan(a, b *Plan) bool {
	if a.MinDistance != b.MinDistance || a.TargetsCovered != b.TargetsCovered ||
		a.MissesCovered != b.MissesCovered || a.TotalMisses != b.TotalMisses ||
		len(a.Insertions) != len(b.Insertions) || (a.Insertions == nil) != (b.Insertions == nil) {
		return false
	}
	for i, x := range a.Insertions {
		y := b.Insertions[i]
		if x.Site != y.Site || x.Target != y.Target || x.Distance != y.Distance ||
			math.Float64bits(x.Prob) != math.Float64bits(y.Prob) || x.TargetMisses != y.TargetMisses {
			return false
		}
	}
	return true
}

func binaryRoundTrip(t *testing.T, p *Plan) *Plan {
	t.Helper()
	b, err := p.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("decoding %d-byte plan: %v", len(b), err)
	}
	return &got
}

// handMadePlans cover what Build never produces: unsorted and repeated
// sites, targets below their sites, address and counter extremes, and
// probabilities whose bits a float comparison would not check.
func handMadePlans() []*Plan {
	return []*Plan{
		{},
		{MinDistance: 7, TotalMisses: 3},
		{
			MinDistance: -1, TargetsCovered: math.MaxInt, MissesCovered: math.MinInt64, TotalMisses: math.MaxInt64,
			Insertions: []Insertion{
				{Site: 0x9000, Target: 0x1000, Distance: 12, Prob: math.NaN(), TargetMisses: 5},
				{Site: 0x1000, Target: 0x9000, Distance: -3, Prob: math.Copysign(0, -1), TargetMisses: -1},
				{Site: 0x1000, Target: 0x1000, Prob: math.Float64frombits(0x7ff8_0000_dead_beef)},
				{Site: math.MaxUint64, Target: 0, Distance: math.MinInt, Prob: math.Inf(-1), TargetMisses: math.MaxInt64},
				{Site: 0, Target: math.MaxUint64, Distance: math.MaxInt, Prob: math.SmallestNonzeroFloat64},
			},
		},
	}
}

func TestPlanBinaryRoundTrip(t *testing.T) {
	plans := handMadePlans()
	for _, name := range []string{"secret_crypto52", "secret_srv12"} {
		_, _, p := buildWorkloadPlan(t, name)
		if len(p.Insertions) == 0 {
			t.Fatalf("%s: empty plan", name)
		}
		plans = append(plans, p)
	}
	for i, p := range plans {
		if got := binaryRoundTrip(t, p); !samePlan(got, p) {
			t.Errorf("plan %d drifted through the binary form:\n got %+v\nwant %+v", i, got, p)
		}
	}
}

// TestPlanBinaryAppends checks AppendBinary extends its argument rather
// than overwriting it.
func TestPlanBinaryAppends(t *testing.T) {
	p := handMadePlans()[2]
	alone, _ := p.AppendBinary(nil)
	withPrefix, _ := p.AppendBinary([]byte("prefix"))
	if !bytes.Equal(withPrefix, append([]byte("prefix"), alone...)) {
		t.Fatal("AppendBinary did not append to its argument")
	}
}

func TestPlanBinaryRejectsMalformed(t *testing.T) {
	valid, _ := handMadePlans()[2].AppendBinary(nil)
	cases := map[string][]byte{
		"empty":           nil,
		"unknown version": append([]byte{planBinaryVersion + 1}, valid[1:]...),
		"trailing byte":   append(append([]byte(nil), valid...), 0),
		"varint overflow": {planBinaryVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		// Header of four zero varints, then a count of 2 with 23 bytes left:
		// one short of the 24 two minimal insertions need.
		"count beyond input": append([]byte{planBinaryVersion, 0, 0, 0, 0, 2}, make([]byte, 2*minInsertionBytes-1)...),
		"huge count":         binaryHeaderWithCount(math.MaxUint64),
	}
	for cut := 1; cut < len(valid); cut++ {
		cases[fmt.Sprintf("truncated to %d bytes", cut)] = valid[:cut]
	}
	for name, data := range cases {
		p := &Plan{MinDistance: 42}
		if err := p.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted % x", name, data)
		}
		if p.MinDistance != 42 || p.Insertions != nil {
			t.Errorf("%s: failed decode modified the plan: %+v", name, p)
		}
	}
}

// binaryHeaderWithCount encodes a zero header claiming n insertions and
// holding none.
func binaryHeaderWithCount(n uint64) []byte {
	return binary.AppendUvarint([]byte{planBinaryVersion, 0, 0, 0, 0}, n)
}

// maxDecodeAlloc bounds what UnmarshalBinary may allocate for n input
// bytes: at most one 40-byte Insertion per minInsertionBytes of input, with
// room for the allocator's size-class rounding (under 1/8) and, for large
// slices, for rounding up to an 8 KiB page.
func maxDecodeAlloc(n int) uint64 { return uint64(4*n + 8192) }

// planFromBytes deterministically derives a plan from arbitrary bytes, so
// the fuzzer explores encodable plans as well as encoded ones.
func planFromBytes(data []byte) *Plan {
	next := func() uint64 {
		var v uint64
		for i := 0; i < 8 && len(data) > 0; i++ {
			v = v<<8 | uint64(data[0])
			data = data[1:]
		}
		return v
	}
	p := &Plan{
		MinDistance:    int(next()),
		TargetsCovered: int(next()),
		MissesCovered:  int64(next()),
		TotalMisses:    int64(next()),
	}
	for len(data) > 0 {
		p.Insertions = append(p.Insertions, Insertion{
			Site:         isa.Addr(next()),
			Target:       isa.Addr(next()),
			Distance:     int(next()),
			Prob:         math.Float64frombits(next()),
			TargetMisses: int64(next()),
		})
	}
	return p
}

// FuzzPlanBinary checks that encoding then decoding any plan is the
// identity, and that decoding arbitrary bytes either fails or yields a plan
// that round-trips, without panicking and with allocation bounded by the
// input's length.
func FuzzPlanBinary(f *testing.F) {
	for _, p := range handMadePlans() {
		b, _ := p.AppendBinary(nil)
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add(binaryHeaderWithCount(1 << 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		derived := planFromBytes(data)
		if got := binaryRoundTrip(t, derived); !samePlan(got, derived) {
			t.Fatalf("derived plan drifted:\n got %+v\nwant %+v", got, derived)
		}

		var p Plan
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := p.UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d bytes (err %v)", len(data), alloc, err)
		}
		if err != nil {
			return
		}
		if got := binaryRoundTrip(t, &p); !samePlan(got, &p) {
			t.Fatalf("decoded plan drifted:\n got %+v\nwant %+v", got, &p)
		}
	})
}
