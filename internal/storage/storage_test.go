package storage

import (
	"testing"
	"testing/quick"
)

func TestColumnRoundTrips(t *testing.T) {
	ic := NewColumn("i", Int64)
	fc := NewColumn("f", Float64)
	cc := NewColumn("c", Char)
	sc := NewColumn("s", String)
	for i := 0; i < 100; i++ {
		ic.AppendInt64(int64(i*i - 50))
		fc.AppendFloat64(float64(i) / 8)
		cc.AppendChar(byte('a' + i%26))
		sc.AppendString(string(rune('A'+i%26)) + "xyz")
	}
	for i := 0; i < 100; i++ {
		if ic.Int64At(i) != int64(i*i-50) {
			t.Fatalf("int64 row %d", i)
		}
		if fc.Float64At(i) != float64(i)/8 {
			t.Fatalf("float row %d", i)
		}
		if cc.CharAt(i) != byte('a'+i%26) {
			t.Fatalf("char row %d", i)
		}
		if sc.StringAt(i) != string(rune('A'+i%26))+"xyz" {
			t.Fatalf("string row %d: %q", i, sc.StringAt(i))
		}
	}
	if ic.Rows() != 100 || len(ic.Data()) != 800 {
		t.Errorf("rows/data sizing wrong")
	}
	if sc.Heap() == nil || len(sc.Data()) != 1600 {
		t.Errorf("string column sizing wrong")
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	c := NewColumn("s", String)
	var want []string
	add := func(s string) bool {
		c.AppendString(s)
		want = append(want, s)
		return c.StringAt(len(want)-1) == s
	}
	if err := quick.Check(add, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	for i, s := range want {
		if c.StringAt(i) != s {
			t.Fatalf("row %d corrupted after later appends", i)
		}
	}
}

func TestTableAndCatalog(t *testing.T) {
	a := NewColumn("a", Int64)
	b := NewColumn("b", Decimal)
	a.AppendInt64(1)
	b.AppendInt64(250)
	tbl := NewTable("t", a, b)
	if err := tbl.Check(); err != nil {
		t.Fatal(err)
	}
	if tbl.Col("a") != a || tbl.Col("nope") != nil {
		t.Error("Col lookup broken")
	}
	b.AppendInt64(1)
	if err := tbl.Check(); err == nil {
		t.Error("Check missed ragged columns")
	}
	cat := NewCatalog()
	cat.Add(tbl)
	if cat.Table("t") != tbl || len(cat.Names()) != 1 {
		t.Error("catalog broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustCol should panic on missing column")
		}
	}()
	tbl.MustCol("missing")
}

func TestDates(t *testing.T) {
	cases := []struct {
		s    string
		days int64
	}{
		{"1970-01-01", 0}, {"1970-01-02", 1}, {"1996-01-01", 9496},
		{"1992-01-01", 8035}, {"1998-08-02", 10440},
	}
	for _, c := range cases {
		if got := MustParseDate(c.s); got != c.days {
			t.Errorf("MustParseDate(%s) = %d, want %d", c.s, got, c.days)
		}
		if got := FormatDate(c.days); got != c.s {
			t.Errorf("FormatDate(%d) = %s, want %s", c.days, got, c.s)
		}
	}
	if YearOf(MustParseDate("1995-12-31")) != 1995 {
		t.Error("YearOf broken")
	}
	if DaysFromDate(1970, 1, 3) != 2 {
		t.Error("DaysFromDate broken")
	}
}

func TestDecimalString(t *testing.T) {
	cases := []struct {
		v     int64
		scale int
		want  string
	}{
		{12345, 2, "123.45"}, {-12345, 2, "-123.45"}, {5, 2, "0.05"},
		{0, 2, "0.00"}, {7, 0, "7"}, {1234567, 4, "123.4567"},
	}
	for _, c := range cases {
		if got := DecimalString(c.v, c.scale); got != c.want {
			t.Errorf("DecimalString(%d,%d) = %s, want %s", c.v, c.scale, got, c.want)
		}
	}
}

// TestSealedAfterStats: building a zone map or a dictionary seals the
// column, so every Append* panics and leaves the column as it was, while
// rebuilding the statistics without an append still works. A column
// without statistics — what Result.ToTable materializes for a later stage
// — stays appendable.
func TestSealedAfterStats(t *testing.T) {
	appends := []struct {
		name string
		kind Kind
		add  func(c *Column)
	}{
		{"AppendInt64", Int64, func(c *Column) { c.AppendInt64(7) }},
		{"AppendFloat64", Float64, func(c *Column) { c.AppendFloat64(7.5) }},
		{"AppendChar", Char, func(c *Column) { c.AppendChar('x') }},
		{"AppendString", String, func(c *Column) { c.AppendString("x") }},
	}
	builds := []struct {
		name  string
		build func(c *Column, blockRows int)
		// has reports whether the build recorded statistics for c.
		has func(c *Column) bool
	}{
		{"BuildZoneMap", func(c *Column, n int) { c.BuildZoneMap(n) },
			func(c *Column) bool { return c.Zone() != nil && c.Zone().Rows == c.Rows() }},
		{"BuildDict", func(c *Column, _ int) { c.BuildDict() },
			func(c *Column) bool { return c.Dict() != nil && c.Dict().Card() == 1 }},
	}
	const rows = 10
	for _, a := range appends {
		t.Run(a.name+"-without-stats", func(t *testing.T) {
			c := NewColumn("c", a.kind)
			for i := 0; i < rows; i++ {
				a.add(c)
			}
			if c.Rows() != rows {
				t.Fatalf("%d rows, want %d", c.Rows(), rows)
			}
		})
		for _, b := range builds {
			if b.name == "BuildDict" && a.kind != String {
				continue // only String columns carry a dictionary
			}
			t.Run(a.name+"-after-"+b.name, func(t *testing.T) {
				c := NewColumn("c", a.kind)
				for i := 0; i < rows; i++ {
					a.add(c)
				}
				b.build(c, 4)
				b.build(c, 2) // a rebuild without an append is fine
				// A String column without a dictionary has no zone map
				// but is sealed all the same.
				if want := a.kind != String || b.name == "BuildDict"; b.has(c) != want {
					t.Fatalf("statistics after rebuild: %v, want %v", b.has(c), want)
				}
				defer func() {
					if recover() == nil {
						t.Errorf("%s after %s did not panic", a.name, b.name)
					}
					if c.Rows() != rows {
						t.Errorf("rejected append changed the row count to %d", c.Rows())
					}
				}()
				a.add(c)
			})
		}
	}
}
