// Package instant is the one conversion between time.Time and the int64
// the per-client records keep: Unix nanoseconds, eight bytes and plain
// integer arithmetic where a time.Time is twenty-four and a branch on its
// encoding per operation. Log lines carry years 0000–9999 but
// time.Time.UnixNano is defined only for 1678–2262, so Of clamps: an
// instant outside the range becomes the nearest end of it, order is
// preserved (never inverted, at worst made equal), and the zero time.Time
// maps to Never and back, so a record nothing has touched still
// snapshots as the zero time. Only the wall clock survives: a monotonic
// reading is dropped, as the snapshot codec always dropped it.
package instant

import (
	"math"
	"time"
)

const (
	// Never is the zero time.Time; it orders before every instant.
	Never int64 = math.MinInt64

	minSec = math.MinInt64/1_000_000_000 + 1
	maxSec = math.MaxInt64/1_000_000_000 - 1
	// Earliest and Latest are what out-of-range times clamp to.
	Earliest int64 = minSec * 1e9
	Latest   int64 = maxSec*1e9 + 999_999_999
)

// Of converts t, clamping to [Earliest, Latest]; the zero time is Never.
func Of(t time.Time) int64 {
	sec := t.Unix()
	switch {
	case sec < minSec:
		if t.IsZero() {
			return Never
		}
		return Earliest
	case sec > maxSec:
		return Latest
	}
	return sec*1e9 + int64(t.Nanosecond())
}

// Time converts back; Never is the zero time.Time.
func Time(n int64) time.Time {
	if n == Never {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// Add returns n+d, saturating at Earliest and Latest instead of wrapping.
func Add(n int64, d time.Duration) int64 {
	s := n + int64(d)
	switch {
	case d > 0 && (s < n || s > Latest):
		return Latest
	case d < 0 && (s > n || s < Earliest):
		return Earliest
	}
	return s
}

// Sub returns a−b, saturating like time.Time.Sub.
func Sub(a, b int64) time.Duration {
	d := a - b
	switch {
	case a >= b && d < 0:
		return math.MaxInt64
	case a < b && d > 0:
		return math.MinInt64
	}
	return time.Duration(d)
}
