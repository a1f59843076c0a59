package storage

import (
	"math"
	"testing"
)

func TestZoneMapBlocks(t *testing.T) {
	c := NewColumn("a", Int64)
	for i := 0; i < 250; i++ {
		c.AppendInt64(int64(i))
	}
	c.BuildZoneMap(64)
	zm := c.Zone()
	if zm == nil {
		t.Fatal("no zone map after build")
	}
	if zm.Blocks() != 4 {
		t.Fatalf("250 rows / 64 = %d blocks, want 4", zm.Blocks())
	}
	wantMin := []int64{0, 64, 128, 192}
	wantMax := []int64{63, 127, 191, 249}
	for b := 0; b < 4; b++ {
		if zm.MinI[b] != wantMin[b] || zm.MaxI[b] != wantMax[b] {
			t.Errorf("block %d: [%d,%d], want [%d,%d]",
				b, zm.MinI[b], zm.MaxI[b], wantMin[b], wantMax[b])
		}
	}
}

func TestZoneMapKinds(t *testing.T) {
	ch := NewColumn("c", Char)
	f := NewColumn("f", Float64)
	s := NewColumn("s", String)
	for i := 0; i < 10; i++ {
		ch.AppendChar(byte('a' + i))
		f.AppendFloat64(float64(i) / 2)
		s.AppendString("x")
	}
	ch.BuildZoneMap(4)
	f.BuildZoneMap(4)
	s.BuildZoneMap(4)
	if zm := ch.Zone(); zm == nil || zm.MinI[0] != 'a' || zm.MaxI[0] != 'd' {
		t.Errorf("char zone map wrong: %+v", zm)
	}
	if zm := f.Zone(); zm == nil || zm.MinF[1] != 2 || zm.MaxF[1] != 3.5 {
		t.Errorf("float zone map wrong: %+v", zm)
	}
	if s.Zone() != nil {
		t.Error("String column must not carry a zone map")
	}
}

func TestZoneMapFloatNaN(t *testing.T) {
	f := NewColumn("f", Float64)
	f.AppendFloat64(math.NaN())
	f.AppendFloat64(1.5)
	f.AppendFloat64(math.NaN())
	f.AppendFloat64(math.NaN())
	f.BuildZoneMap(2)
	zm := f.Zone()
	if zm == nil {
		t.Fatal("no zone map")
	}
	// NaNs are excluded from the statistics; an all-NaN block gets the
	// empty range [+Inf, -Inf].
	if zm.MinF[0] != 1.5 || zm.MaxF[0] != 1.5 {
		t.Errorf("block 0: [%g,%g], want [1.5,1.5]", zm.MinF[0], zm.MaxF[0])
	}
	if !math.IsInf(zm.MinF[1], 1) || !math.IsInf(zm.MaxF[1], -1) {
		t.Errorf("all-NaN block: [%g,%g], want [+Inf,-Inf]", zm.MinF[1], zm.MaxF[1])
	}
}

func TestReserve(t *testing.T) {
	c := NewColumn("a", Int64)
	c.AppendInt64(7)
	c.Reserve(1000, 0)
	base := &c.Data()[0]
	for i := 0; i < 1000; i++ {
		c.AppendInt64(int64(i))
	}
	if &c.Data()[0] != base {
		t.Error("reserved append still reallocated")
	}
	if c.Int64At(0) != 7 || c.Int64At(1000) != 999 {
		t.Error("data corrupted by Reserve")
	}

	s := NewColumn("s", String)
	s.AppendString("keep")
	s.Reserve(100, 1000)
	hbase := &s.Heap()[0]
	for i := 0; i < 100; i++ {
		s.AppendString("0123456789")
	}
	if &s.Heap()[0] != hbase {
		t.Error("reserved heap append still reallocated")
	}
	if s.StringAt(0) != "keep" || s.StringAt(100) != "0123456789" {
		t.Error("heap corrupted by Reserve")
	}
}
