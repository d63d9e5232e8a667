package instant

import (
	"math"
	"testing"
	"time"
)

func TestRoundTripInRange(t *testing.T) {
	for _, ts := range []time.Time{
		time.Unix(0, 0),
		time.Date(2018, 3, 11, 12, 0, 0, 123456789, time.UTC),
		time.Date(1700, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(2262, 1, 1, 0, 0, 0, 0, time.FixedZone("x", 3600)),
	} {
		n := Of(ts)
		if n != ts.UnixNano() {
			t.Errorf("Of(%v) = %d, want UnixNano %d", ts, n, ts.UnixNano())
		}
		if back := Time(n); !back.Equal(ts) || back.Unix() != ts.Unix() || back.Nanosecond() != ts.Nanosecond() {
			t.Errorf("Time(Of(%v)) = %v", ts, back)
		}
	}
}

// The zero time is its own value on both sides, so a snapshot of a record
// nothing touched writes the bytes it always wrote.
func TestZeroTimeIsNever(t *testing.T) {
	if Of(time.Time{}) != Never {
		t.Errorf("Of(zero) = %d", Of(time.Time{}))
	}
	if !Time(Never).IsZero() {
		t.Errorf("Time(Never) = %v", Time(Never))
	}
	// What statecodec reads back for a written zero time.
	if Of(time.Unix(time.Time{}.Unix(), 0)) != Never {
		t.Error("a decoded zero time is not Never")
	}
}

// Every year a log line can carry converts without wrapping, and order is
// never inverted.
func TestClampIsMonotone(t *testing.T) {
	stamps := []time.Time{
		{},
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC),
		time.Date(1677, 9, 21, 0, 12, 43, 0, time.UTC),
		time.Date(1677, 9, 21, 0, 12, 46, 0, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 14, 0, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 17, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	}
	prev := Never
	for i, ts := range stamps {
		n := Of(ts)
		if i > 0 && (n < prev || n == Never) {
			t.Errorf("Of(%v) = %d after %d", ts, n, prev)
		}
		if back := Time(n); Of(back) != n {
			t.Errorf("%v: Of(Time(%d)) = %d", ts, n, Of(back))
		}
		prev = n
	}
	if Of(stamps[1]) != Earliest || Of(stamps[len(stamps)-1]) != Latest {
		t.Error("out-of-range years do not clamp to the ends")
	}
	if Of(stamps[4]) == Earliest || Of(stamps[6]) == Latest {
		t.Error("representable instants next to the ends were clamped")
	}
}

func TestAddAndSubSaturate(t *testing.T) {
	if got := Add(Latest, time.Hour); got != Latest {
		t.Errorf("Add(Latest, 1h) = %d", got)
	}
	if got := Add(Earliest, -time.Hour); got != Earliest {
		t.Errorf("Add(Earliest, -1h) = %d", got)
	}
	if got := Add(Latest-5, math.MaxInt64); got != Latest {
		t.Errorf("Add(Latest-5, max) = %d", got)
	}
	if got := Add(100, -30); got != 70 {
		t.Errorf("Add(100, -30) = %d", got)
	}
	if got := Sub(Latest, Earliest); got != math.MaxInt64 {
		t.Errorf("Sub(Latest, Earliest) = %d", got)
	}
	if got := Sub(Earliest, Latest); got != math.MinInt64 {
		t.Errorf("Sub(Earliest, Latest) = %d", got)
	}
	if got := Sub(Latest, Never); got != math.MaxInt64 {
		t.Errorf("Sub(Latest, Never) = %d", got)
	}
	a, b := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2018, 1, 2, 0, 0, 0, 5, time.UTC)
	if got := Sub(Of(b), Of(a)); got != b.Sub(a) {
		t.Errorf("Sub = %v, want %v", got, b.Sub(a))
	}
}
