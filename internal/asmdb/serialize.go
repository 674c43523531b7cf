package asmdb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"frontsim/internal/isa"
)

// planJSON is the on-disk representation of a Plan. Addresses serialize as
// hex strings for human-diffable output.
type planJSON struct {
	Version        int             `json:"version"`
	MinDistance    int             `json:"min_distance"`
	TargetsCovered int             `json:"targets_covered"`
	MissesCovered  int64           `json:"misses_covered"`
	TotalMisses    int64           `json:"total_misses"`
	Insertions     []insertionJSON `json:"insertions"`
}

type insertionJSON struct {
	Site         string  `json:"site"`
	Target       string  `json:"target"`
	Distance     int     `json:"distance"`
	Prob         float64 `json:"prob"`
	TargetMisses int64   `json:"target_misses"`
}

const planFormatVersion = 1

// Encode serializes the plan as JSON.
func (p *Plan) Encode(w io.Writer) error {
	out := planJSON{
		Version:        planFormatVersion,
		MinDistance:    p.MinDistance,
		TargetsCovered: p.TargetsCovered,
		MissesCovered:  p.MissesCovered,
		TotalMisses:    p.TotalMisses,
		Insertions:     make([]insertionJSON, len(p.Insertions)),
	}
	for i, ins := range p.Insertions {
		out.Insertions[i] = insertionJSON{
			Site:         ins.Site.String(),
			Target:       ins.Target.String(),
			Distance:     ins.Distance,
			Prob:         ins.Prob,
			TargetMisses: ins.TargetMisses,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadPlan deserializes a plan written by Encode.
func ReadPlan(r io.Reader) (*Plan, error) {
	var in planJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("asmdb: decoding plan: %w", err)
	}
	if in.Version != planFormatVersion {
		return nil, fmt.Errorf("asmdb: unsupported plan version %d", in.Version)
	}
	p := &Plan{
		MinDistance:    in.MinDistance,
		TargetsCovered: in.TargetsCovered,
		MissesCovered:  in.MissesCovered,
		TotalMisses:    in.TotalMisses,
		Insertions:     make([]Insertion, len(in.Insertions)),
	}
	for i, ins := range in.Insertions {
		site, err := parseAddr(ins.Site)
		if err != nil {
			return nil, fmt.Errorf("asmdb: insertion %d site: %w", i, err)
		}
		target, err := parseAddr(ins.Target)
		if err != nil {
			return nil, fmt.Errorf("asmdb: insertion %d target: %w", i, err)
		}
		p.Insertions[i] = Insertion{
			Site:         site,
			Target:       target,
			Distance:     ins.Distance,
			Prob:         ins.Prob,
			TargetMisses: ins.TargetMisses,
		}
	}
	return p, nil
}

// parseAddr parses the hex form isa.Addr.String produces ("0x..."). The
// whole string must be consumed: "0x10zz" is an error, not 0x10.
func parseAddr(s string) (isa.Addr, error) {
	digits, ok := strings.CutPrefix(s, "0x")
	if !ok {
		return 0, fmt.Errorf("bad address %q: missing 0x prefix", s)
	}
	v, err := strconv.ParseUint(digits, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad address %q: %w", s, err)
	}
	return isa.Addr(v), nil
}

// planBinaryVersion is the first byte of the compact form AppendBinary
// writes. It versions that form alone, independently of planFormatVersion.
const planBinaryVersion = 1

// minInsertionBytes is the shortest encoding of one insertion: four
// one-byte varints plus the eight bytes of Prob. UnmarshalBinary refuses a
// count the remaining input could not hold, so a corrupt count cannot make
// it allocate more than a constant multiple of the input's length.
const minInsertionBytes = 4 + 8

var errPlanTruncated = errors.New("asmdb: binary plan truncated")

// AppendBinary appends the plan's compact binary form to b: a version byte,
// the header fields and the insertion count as varints, then per insertion
// its Site as a delta from the previous insertion's Site, its Target
// relative to its Site, Distance, the exact bits of Prob, and TargetMisses.
// Deltas wrap and are zigzag-encoded, so insertions in any order and with
// any addresses round-trip exactly. It never fails; the error return
// matches encoding.BinaryAppender.
func (p *Plan) AppendBinary(b []byte) ([]byte, error) {
	b = append(b, planBinaryVersion)
	b = binary.AppendVarint(b, int64(p.MinDistance))
	b = binary.AppendVarint(b, int64(p.TargetsCovered))
	b = binary.AppendVarint(b, p.MissesCovered)
	b = binary.AppendVarint(b, p.TotalMisses)
	b = binary.AppendUvarint(b, uint64(len(p.Insertions)))
	var prev isa.Addr
	for _, ins := range p.Insertions {
		b = binary.AppendVarint(b, int64(ins.Site-prev))
		b = binary.AppendVarint(b, int64(ins.Target-ins.Site))
		b = binary.AppendVarint(b, int64(ins.Distance))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ins.Prob))
		b = binary.AppendVarint(b, ins.TargetMisses)
		prev = ins.Site
	}
	return b, nil
}

// UnmarshalBinary sets p to the plan AppendBinary encoded in data. Truncated
// input, trailing bytes, an unknown version and an insertion count larger
// than the remaining bytes could hold are errors, and leave p unchanged.
// A plan with no insertions decodes with nil Insertions.
func (p *Plan) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return errPlanTruncated
	}
	if data[0] != planBinaryVersion {
		return fmt.Errorf("asmdb: unsupported binary plan version %d", data[0])
	}
	r := planReader{buf: data[1:]}
	out := Plan{
		MinDistance:    int(r.varint()),
		TargetsCovered: int(r.varint()),
		MissesCovered:  r.varint(),
		TotalMisses:    r.varint(),
	}
	n := r.uvarint()
	if r.err != nil {
		return r.err
	}
	if n > uint64(len(r.buf))/minInsertionBytes {
		return fmt.Errorf("asmdb: binary plan claims %d insertions in %d bytes", n, len(r.buf))
	}
	if n > 0 {
		out.Insertions = make([]Insertion, n)
	}
	var prev isa.Addr
	for i := range out.Insertions {
		ins := &out.Insertions[i]
		ins.Site = prev + isa.Addr(r.varint())
		ins.Target = ins.Site + isa.Addr(r.varint())
		ins.Distance = int(r.varint())
		ins.Prob = math.Float64frombits(r.uint64())
		ins.TargetMisses = r.varint()
		prev = ins.Site
	}
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("asmdb: %d trailing bytes after binary plan", len(r.buf))
	}
	*p = out
	return nil
}

// planReader consumes a binary plan front to back. The first failure
// sticks in err and every later read returns zero.
type planReader struct {
	buf []byte
	err error
}

func (r *planReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n == 0 {
		r.err = errPlanTruncated
		return 0
	}
	if n < 0 {
		r.err = errors.New("asmdb: binary plan varint overflows 64 bits")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// varint reads a zigzag-encoded varint, as binary.AppendVarint writes it.
func (r *planReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *planReader) uint64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = errPlanTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}
