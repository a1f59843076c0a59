package storage

import (
	"math/rand"
	"sort"
	"testing"
)

func TestDictOrderPreserving(t *testing.T) {
	c := NewColumn("s", String)
	vals := []string{"pear", "apple", "fig", "apple", "banana", "fig", "pear", "apple"}
	for _, v := range vals {
		c.AppendString(v)
	}
	c.BuildDict()
	d := c.Dict()
	if d == nil {
		t.Fatal("no dictionary after BuildDict")
	}
	if d.Card() != 4 {
		t.Fatalf("Card = %d, want 4", d.Card())
	}
	if !sort.StringsAreSorted(d.Values) {
		t.Fatalf("Values not sorted: %v", d.Values)
	}
	// Per-row codes decode back to the original strings.
	for i, v := range vals {
		if got := d.Value(int(d.CodeAt(i))); got != v {
			t.Errorf("row %d: code %d decodes to %q, want %q", i, d.CodeAt(i), got, v)
		}
	}
	// Code order equals string order for every pair of distinct values.
	for i := 0; i < d.Card(); i++ {
		for j := 0; j < d.Card(); j++ {
			if (i < j) != (d.Value(i) < d.Value(j)) {
				t.Errorf("code order %d vs %d disagrees with %q vs %q",
					i, j, d.Value(i), d.Value(j))
			}
		}
	}
	if code, ok := d.Code("fig"); !ok || d.Value(int(code)) != "fig" {
		t.Errorf("Code(fig) = %d, %v", code, ok)
	}
	if _, ok := d.Code("grape"); ok {
		t.Error("Code found an absent value")
	}
	// LowerBound: col < s ⇔ code < LowerBound(s).
	if lb := d.LowerBound("banana"); lb != 1 {
		t.Errorf("LowerBound(banana) = %d, want 1", lb)
	}
	if lb := d.LowerBound("coconut"); lb != 2 {
		t.Errorf("LowerBound(coconut) = %d, want 2", lb)
	}
	if lb := d.LowerBound("zzz"); lb != int64(d.Card()) {
		t.Errorf("LowerBound(zzz) = %d, want Card", lb)
	}
}

func TestDictNonString(t *testing.T) {
	c := NewColumn("n", Int64)
	c.AppendInt64(7)
	c.BuildDict()
	if c.Dict() != nil {
		t.Error("non-string column produced a dictionary")
	}
}

// TestDictZoneMapCodes: string zone maps hold per-block min/max codes
// consistent with the dictionary.
func TestDictZoneMapCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewColumn("s", String)
	const rows, block = 1000, 128
	for i := 0; i < rows; i++ {
		c.AppendString(string(rune('a' + rng.Intn(20))))
	}
	tb := NewTable("t", c)
	tb.BuildDicts()
	tb.BuildZoneMaps(block)
	d, zm := c.Dict(), c.Zone()
	if d == nil || zm == nil {
		t.Fatal("missing dict or zone map")
	}
	for b := 0; b*block < rows; b++ {
		lo, hi := int64(d.Card()), int64(-1)
		for i := b * block; i < (b+1)*block && i < rows; i++ {
			code := int64(d.CodeAt(i))
			if code < lo {
				lo = code
			}
			if code > hi {
				hi = code
			}
		}
		if zm.MinI[b] != lo || zm.MaxI[b] != hi {
			t.Errorf("block %d: zone [%d,%d], want [%d,%d]",
				b, zm.MinI[b], zm.MaxI[b], lo, hi)
		}
	}
}
