package divscrape_test

import (
	"reflect"
	"testing"
	"time"

	"divscrape"
)

// fillCounters walks v and sets every exported uint64 leaf to a distinct
// nonzero value, returning how many it set. It recurses through structs,
// slices and arrays — the shapes Summary is built from.
func fillCounters(v reflect.Value, next *uint64) int {
	switch v.Kind() {
	case reflect.Uint64:
		if !v.CanSet() {
			return 0
		}
		*next++
		v.SetUint(*next)
		return 1
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += fillCounters(v.Field(i), next)
		}
		return n
	case reflect.Slice, reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += fillCounters(v.Index(i), next)
		}
		return n
	default:
		return 0
	}
}

// sumCounters adds up every uint64 leaf, mirroring fillCounters' walk;
// it reads unexported leaves too.
func sumCounters(v reflect.Value) uint64 {
	switch v.Kind() {
	case reflect.Uint64:
		return v.Uint()
	case reflect.Struct:
		var n uint64
		for i := 0; i < v.NumField(); i++ {
			n += sumCounters(v.Field(i))
		}
		return n
	case reflect.Slice, reflect.Array:
		var n uint64
		for i := 0; i < v.Len(); i++ {
			n += sumCounters(v.Index(i))
		}
		return n
	default:
		return 0
	}
}

// TestMergeFoldsEveryCountedField pins Summary.Merge against a counted
// field that Merge silently drops. A summary of a real three-detector run
// holds its counts in its agreement table; any exported counter added
// beside it is set by reflection to a distinct nonzero value. Merging
// into a zero Summary must reproduce all of them, and merging twice must
// exactly double every uint64 leaf, the table's cells included. A new
// counter anywhere in the struct tree is covered automatically —
// forgetting it in Merge fails this test, not a production report.
func TestMergeFoldsEveryCountedField(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: 5, Duration: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	src, err := divscrape.Analyze(divscrape.Generated(gen), divscrape.Options{
		Detectors: []string{"sentinel", "arcane", "trajectory"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	fillCounters(reflect.ValueOf(src).Elem(), &seq)
	filled := seq * (seq + 1) / 2 // 1 + 2 + … + seq
	if src.Total() == 0 || sumCounters(reflect.ValueOf(src).Elem()) != src.Total()+filled {
		// The table's cells sum to Total: anything else means the walk
		// went blind.
		t.Fatalf("reflection walk does not reach the table's %d requests", src.Total())
	}

	dst := &divscrape.Summary{}
	dst.Merge(src)
	dst.Labelled = src.Labelled // descriptive flag, deliberately not merged
	if !reflect.DeepEqual(dst, src) {
		t.Fatalf("merge into zero summary lost counts:\n got  %+v\n want %+v", dst, src)
	}

	dst.Merge(src)
	got := sumCounters(reflect.ValueOf(dst).Elem())
	want := 2 * sumCounters(reflect.ValueOf(src).Elem())
	if got != want {
		t.Fatalf("second merge dropped counts: leaf sum %d, want %d", got, want)
	}
}
