package storage

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refFormatDate and refDecimalString are the fmt / time.Time formatters
// AppendDate and AppendDecimal replaced, kept as the property tests'
// reference.
func refFormatDate(days int64) string {
	return Epoch.AddDate(0, 0, int(days)).Format("2006-01-02")
}

func refDecimalString(v int64, scale int) string {
	if scale == 0 {
		return fmt.Sprintf("%d", v)
	}
	pow := int64(1)
	for i := 0; i < scale; i++ {
		pow *= 10
	}
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	return fmt.Sprintf("%s%d.%0*d", sign, v/pow, scale, v%pow)
}

func TestAppendDateMatchesTime(t *testing.T) {
	check := func(days int64) {
		t.Helper()
		if got, want := FormatDate(days), refFormatDate(days); got != want {
			t.Fatalf("FormatDate(%d) = %q, time.Format says %q", days, got, want)
		}
	}
	// Every day of eight centuries around the epoch covers each leap-year
	// rule (4, 100, 400) and every month boundary, before and after 1970.
	for d := DaysFromDate(1599, 12, 25); d <= DaysFromDate(2401, 1, 5); d++ {
		check(d)
	}
	for _, d := range []int64{0, -1, 1, DaysFromDate(2000, 2, 29), DaysFromDate(1900, 2, 28),
		DaysFromDate(1900, 3, 1), DaysFromDate(1, 1, 1), DaysFromDate(0, 1, 1), DaysFromDate(0, 12, 31),
		DaysFromDate(-1, 12, 31), DaysFromDate(-400, 2, 29), DaysFromDate(9999, 12, 31), DaysFromDate(10000, 1, 1)} {
		check(d)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200000; i++ {
		check(rng.Int63n(5_000_000) - 1_500_000)
	}
}

func TestAppendDecimalMatchesSprintf(t *testing.T) {
	check := func(v int64, scale int) {
		t.Helper()
		if got, want := DecimalString(v, scale), refDecimalString(v, scale); got != want {
			t.Fatalf("DecimalString(%d, %d) = %q, Sprintf says %q", v, scale, got, want)
		}
	}
	edges := []int64{0, 1, -1, 5, -5, 9, 10, -10, 99, 100, -100, 101, -101, 12345, -12345,
		math.MaxInt64, math.MinInt64 + 1, 1_000_000_007, -1_000_000_007}
	for scale := 0; scale <= 18; scale++ {
		for _, v := range edges {
			check(v, scale)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 200000; i++ {
		v := int64(rng.Uint64())
		if v == math.MinInt64 {
			continue
		}
		// Mix magnitudes: most real decimals are small.
		v >>= uint(rng.Intn(63))
		check(v, rng.Intn(19))
	}
	// The old formatter negated in int64 and printed garbage for the most
	// negative value; the magnitude is now taken unsigned.
	for scale, want := range map[int]string{
		0:  "-9223372036854775808",
		2:  "-92233720368547758.08",
		4:  "-922337203685477.5808",
		18: "-9.223372036854775808",
	} {
		if got := DecimalString(math.MinInt64, scale); got != want {
			t.Errorf("DecimalString(MinInt64, %d) = %q, want %q", scale, got, want)
		}
	}
}

func TestAppendFormattersAppend(t *testing.T) {
	b := []byte("x=")
	b = AppendDate(b, DaysFromDate(1998, 9, 2))
	b = append(b, ' ')
	b = AppendDecimal(b, -5, 2)
	if string(b) != "x=1998-09-02 -0.05" {
		t.Fatalf("got %q", b)
	}
	if n := testing.AllocsPerRun(100, func() {
		b = AppendDecimal(AppendDate(b[:0], 10957), 123456, 2)
	}); n != 0 {
		t.Errorf("formatters allocate %v times per call into a sized buffer", n)
	}
}
