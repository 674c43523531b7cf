package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// envelopeBytes is the record json.Marshal(envelope) makes for key and
// value, which is what Put has always written.
func envelopeBytes(t *testing.T, key, value any) []byte {
	t.Helper()
	k, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	v, err := json.Marshal(value)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(envelope{Key: k, Value: v})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// writeEntry stores raw at key's address, bypassing Put.
func writeEntry(t *testing.T, c *Cache, key any, raw []byte) {
	t.Helper()
	hash, err := Fingerprint(key)
	if err != nil {
		t.Fatal(err)
	}
	path := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// getCounted runs one Get and checks it moved exactly one of the hit and
// miss counters, by one.
func getCounted(t *testing.T, c *Cache, key, out any) bool {
	t.Helper()
	before := c.Metrics()
	ok, err := c.Get(key, out)
	if err != nil {
		t.Fatal(err)
	}
	want := before
	if ok {
		want.Hits++
	} else {
		want.Misses++
	}
	if got := c.Metrics(); got != want {
		t.Fatalf("metrics after Get (ok=%v): got %+v, want %+v", ok, got, want)
	}
	return ok
}

func TestCacheGetReadsMarshaledEnvelope(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey{Kind: "envelope", N: 3}
	want := testValue{Words: []string{"x"}, Score: 0.5}
	writeEntry(t, c, key, envelopeBytes(t, key, want))
	var got testValue
	if !getCounted(t, c, key, &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want a hit with %+v", got, want)
	}
}

// TestCacheGetMissesNearEnvelopes stores, under one key's address, records
// that are not exactly the envelope Put writes for that key. Every one must
// be a miss, though several would decode as JSON.
func TestCacheGetMissesNearEnvelopes(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Number keys make the last byte of the key's JSON significant.
	const key = 12
	value := testValue{Words: []string{"w"}, Score: 2}
	good := envelopeBytes(t, key, value)
	var indented bytes.Buffer
	if err := json.Indent(&indented, good, "", "  "); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"different key":            envelopeBytes(t, 99, value),
		"key differs in last byte": envelopeBytes(t, 13, value),
		"key extends the probe":    envelopeBytes(t, 123, value),
		"trailing newline":         append(append([]byte(nil), good...), '\n'),
		"trailing object":          append(append([]byte(nil), good...), "{}"...),
		"trailing space":           append(append([]byte(nil), good...), ' '),
		"re-indented":              indented.Bytes(),
		"empty":                    {},
	}
	for cut := 1; cut < len(good); cut++ {
		cases[fmt.Sprintf("truncated to %d bytes", cut)] = good[:cut]
	}
	for name, raw := range cases {
		writeEntry(t, c, key, raw)
		var got testValue
		if getCounted(t, c, key, &got) {
			t.Errorf("%s: hit on %q", name, raw)
		}
	}
	writeEntry(t, c, key, good)
	var got testValue
	if !getCounted(t, c, key, &got) || !reflect.DeepEqual(got, value) {
		t.Fatalf("intact entry: got %+v, want a hit with %+v", got, value)
	}
}

// TestCacheEscapingMatchesMarshal round-trips a key and value holding the
// characters json.Marshal escapes (<, >, &, U+2028, U+2029) and non-ASCII text it
// does not, and checks Put's bytes are json.Marshal(envelope)'s.
func TestCacheEscapingMatchesMarshal(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey{Kind: "<a & b> ünïcödé 日本\u2028", N: -1}
	want := testValue{Words: []string{"<script>&amp;</script>", "żółw", "\u2029"}, Score: 1e-9}
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got testValue
	if !getCounted(t, c, key, &got) || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want a hit with %+v", got, want)
	}
	hash, err := Fingerprint(key)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(c.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	if marshaled := envelopeBytes(t, key, want); !bytes.Equal(onDisk, marshaled) {
		t.Fatalf("Put wrote %s\njson.Marshal(envelope) gives %s", onDisk, marshaled)
	}
	if m := c.Metrics(); m != (Metrics{Hits: 1, Puts: 1}) {
		t.Fatalf("metrics %+v", m)
	}
}
