package storage

import "strconv"

// The display formatters append to a caller-owned buffer and avoid fmt and
// time.Time entirely: the wire encoders call them once per result cell, so
// they must not allocate. FormatDate and DecimalString are the string
// conveniences over the same code.

// AppendDate appends days since the epoch as "YYYY-MM-DD", computed with
// the civil-from-days arithmetic rt.YearOfDays uses (Howard Hinnant's
// algorithm). Years outside 0000-9999 render the way time.Format does:
// a leading '-' for negative years, more than four digits past 9999.
func AppendDate(dst []byte, days int64) []byte {
	z := days + 719468 // days since 0000-03-01
	era := z / 146097
	if z < 0 {
		era = (z - 146096) / 146097
	}
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100) // [0, 365], March-based
	mp := (5*doy + 2) / 153                  // [0, 11], March = 0
	d := doy - (153*mp+2)/5 + 1
	m := mp + 3
	if m > 12 {
		m -= 12
		y++
	}
	if y < 0 {
		dst = append(dst, '-')
		y = -y
	}
	for p := int64(1000); p > 1 && y < p; p /= 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, y, 10)
	return append(dst, '-', byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10))
}

// FormatDate renders days since the epoch as "YYYY-MM-DD".
func FormatDate(days int64) string { return string(AppendDate(nil, days)) }

// AppendDecimal appends a scaled integer with the given scale: the
// integer part, then (for scale > 0) a point and exactly scale fraction
// digits. The magnitude is taken in uint64, so math.MinInt64 formats
// correctly instead of overflowing on negation.
func AppendDecimal(dst []byte, v int64, scale int) []byte {
	if scale == 0 {
		return strconv.AppendInt(dst, v, 10)
	}
	mag := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		mag = -mag
	}
	pow := uint64(1)
	for i := 0; i < scale; i++ {
		pow *= 10
	}
	dst = strconv.AppendUint(dst, mag/pow, 10)
	dst = append(dst, '.')
	frac := mag % pow
	for p := pow / 10; p > 1 && frac < p; p /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, frac, 10)
}

// DecimalString renders a scaled integer with the given scale.
func DecimalString(v int64, scale int) string { return string(AppendDecimal(nil, v, scale)) }
