package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"frontsim/internal/core"
	"frontsim/internal/workload"
)

// TestSeriesAddressesGolden pins the content address of every series of
// one workload at DefaultParams, exact and sampled, to a golden file. A
// change to how a series' run-cache key is derived moves its address and
// fails here, so a cache a user has already filled keeps hitting.
// Refresh with: go test ./internal/experiment -run AddressesGolden -update
// (only together with a core.FingerprintSchema bump).
func TestSeriesAddressesGolden(t *testing.T) {
	spec := workload.All()[0]
	geometries := []struct {
		name     string
		sampling core.SamplingConfig
	}{
		{"exact", core.SamplingConfig{}},
		{"sampled", core.SamplingConfig{IntervalInstrs: 100_000, DetailInstrs: 10_000, WarmInstrs: 20_000}},
	}
	var buf bytes.Buffer
	for _, g := range geometries {
		p := DefaultParams()
		p.Sampling = g.sampling
		for _, label := range SeriesLabels() {
			addr, err := CellAddress(spec, label, p)
			if err != nil {
				t.Fatalf("%s %s: %v", g.name, label, err)
			}
			fmt.Fprintf(&buf, "%s %s %s %s\n", spec.Name, g.name, label, addr)
		}
	}

	golden := filepath.Join("testdata", "series_addresses.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("series content addresses drifted from golden file:\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
