package divscrape_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"divscrape"
	"divscrape/internal/faultinject"
)

func setGen(t *testing.T, seed uint64, dur time.Duration) *divscrape.Generator {
	t.Helper()
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{Seed: seed, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestAnalyzeThreeWaySharded runs all three detectors through both
// engines and compares every detector's confusion matrix.
func TestAnalyzeThreeWaySharded(t *testing.T) {
	names := []string{"sentinel", "arcane", "trajectory"}
	seq, err := divscrape.Analyze(divscrape.Generated(setGen(t, 42, 4*time.Hour)), divscrape.Options{Detectors: names})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Detectors) != 3 {
		t.Fatalf("summary holds %d detectors, want 3", len(seq.Detectors))
	}
	if _, ok := seq.ConfusionOf("trajectory"); !ok {
		t.Fatal("summary missing trajectory confusion")
	}
	sharded, err := divscrape.Analyze(divscrape.Generated(setGen(t, 42, 4*time.Hour)), divscrape.Options{Detectors: names, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Total() != seq.Total() || sharded.Contingency() != seq.Contingency() {
		t.Fatalf("mode summary differs: %+v vs %+v", sharded, seq)
	}
	for _, name := range seq.Detectors {
		got, _ := sharded.ConfusionOf(name)
		want, _ := seq.ConfusionOf(name)
		if got != want {
			t.Fatalf("%s confusion differs: %+v vs %+v", name, got, want)
		}
	}
}

// TestTrajectoryNonInterference is the metamorphic guarantee behind the
// third detector: adding trajectory to the set leaves the sentinel and
// arcane verdict streams exactly as they were. Detectors share only the
// enricher, whose outputs do not depend on how many detectors consume
// them, so slot i of the pair run must equal slot i of the triple run on
// every single event.
func TestTrajectoryNonInterference(t *testing.T) {
	pair, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	triple, err := divscrape.NewDetectorSet("sentinel", "arcane", "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	vp := make([]divscrape.Verdict, pair.Len())
	vt := make([]divscrape.Verdict, triple.Len())
	n := 0
	err = setGen(t, 41, 4*time.Hour).Run(func(ev divscrape.Event) error {
		pair.InspectInto(ev.Entry, vp)
		triple.InspectInto(ev.Entry, vt)
		if vp[0] != vt[0] || vp[1] != vt[1] {
			t.Fatalf("event %d: pair verdicts changed under trajectory:\n pair:   %+v %+v\n triple: %+v %+v",
				n, vp[0], vp[1], vt[0], vt[1])
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty run")
	}
}

// TestSetSnapshotPairCompatible: the default set and the pair named
// explicitly, both driven through InspectInto, give the same verdicts and
// hold the same state — their snapshots are the same bytes — and a resumed
// default set is the pair again.
func TestSetSnapshotPairCompatible(t *testing.T) {
	pair, err := divscrape.NewDetectorSet("sentinel", "arcane")
	if err != nil {
		t.Fatal(err)
	}
	set, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	pv := make([]divscrape.Verdict, pair.Len())
	verdicts := make([]divscrape.Verdict, set.Len())
	err = setGen(t, 43, 90*time.Minute).Run(func(ev divscrape.Event) error {
		mustInspect(t, pair, ev.Entry, pv)
		mustInspect(t, set, ev.Entry, verdicts)
		if pv[0] != verdicts[0] || pv[1] != verdicts[1] {
			t.Fatalf("pair verdicts %+v, set verdicts %+v", pv, verdicts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fromPair, fromSet bytes.Buffer
	if err := divscrape.Snapshot(&fromPair, pair); err != nil {
		t.Fatal(err)
	}
	if err := divscrape.Snapshot(&fromSet, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromPair.Bytes(), fromSet.Bytes()) {
		t.Error("pair and default-set snapshots are not byte-identical")
	}
	resumed, err := divscrape.Resume(bytes.NewReader(fromPair.Bytes()))
	if err != nil {
		t.Fatalf("resume from pair snapshot: %v", err)
	}
	if got := resumed.Names(); !reflect.DeepEqual(got, divscrape.DefaultDetectors) {
		t.Fatalf("resumed pair holds %v", got)
	}
}

// TestUnknownDetectorName: the registry rejects typos with the available
// names in the message.
func TestUnknownDetectorName(t *testing.T) {
	if _, err := divscrape.NewDetectorSet("sentinel", "arcana"); err == nil {
		t.Fatal("unknown detector name accepted")
	}
	if _, err := divscrape.FactoriesFor("nope"); err == nil {
		t.Fatal("unknown factory name accepted")
	}
}

// TestDuplicateDetectorName: a detector may be named once — a Summary
// finds a detector's table by its name, so a second slot of the same name
// could never be read. Every entry point resolves names through
// FactoriesFor and refuses the list.
func TestDuplicateDetectorName(t *testing.T) {
	dup := []string{"sentinel", "arcane", "sentinel"}
	if _, err := divscrape.FactoriesFor(dup...); err == nil || !strings.Contains(err.Error(), `duplicate detector "sentinel"`) {
		t.Fatalf("FactoriesFor(%v): err = %v, want a duplicate error", dup, err)
	}
	if _, err := divscrape.NewDetectorSet(dup...); err == nil {
		t.Fatal("NewDetectorSet accepted a duplicate name")
	}
	if _, err := divscrape.Analyze(divscrape.Generated(setGen(t, 44, time.Hour)), divscrape.Options{Detectors: dup, Shards: 3}); err == nil {
		t.Fatal("Analyze accepted a duplicate name")
	}
}

// TestInspectAllocatesNothing pins the zero-allocation promise of the
// per-entry call: after warm-up, DetectorSet.InspectInto costs no heap
// object per entry, for three detectors or the default pair (the set
// keeps the Request it hands its detectors, so no stack copy escapes
// through the Detector interface).
func TestInspectAllocatesNothing(t *testing.T) {
	events, err := setGen(t, 45, 3*time.Hour).Generate()
	if err != nil {
		t.Fatal(err)
	}
	warm := len(events) / 2
	set, err := divscrape.NewDetectorSet("sentinel", "arcane", "trajectory")
	if err != nil {
		t.Fatal(err)
	}
	pair, err := divscrape.NewDetectorSet()
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]divscrape.Verdict, set.Len())
	pv := make([]divscrape.Verdict, pair.Len())
	for _, ev := range events[:warm] {
		set.InspectInto(ev.Entry, verdicts)
		pair.InspectInto(ev.Entry, pv)
	}
	runs := len(events) - warm - 1 // AllocsPerRun calls f once more to warm up
	i := warm
	if got := testing.AllocsPerRun(runs, func() {
		set.InspectInto(events[i].Entry, verdicts)
		i++
	}); got != 0 {
		t.Errorf("DetectorSet.InspectInto: %v allocs/op, want 0", got)
	}
	i = warm
	if got := testing.AllocsPerRun(runs, func() {
		pair.InspectInto(events[i].Entry, pv)
		i++
	}); got != 0 {
		t.Errorf("default DetectorSet.InspectInto: %v allocs/op, want 0", got)
	}
}

// A detector that panics inside a DetectorSet is quarantined as on every
// host: the set judges every entry to the end, the call that saw the panic
// returns its *PanicError, and the other detectors' verdicts are those of
// a set without the fault on every entry.
func TestChaosDetectorSetSurvivesADetectorPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	names := []string{"sentinel", "arcane", "trajectory"}
	events, err := setGen(t, 42, 2*time.Hour).Generate()
	if err != nil {
		t.Fatal(err)
	}
	clean, err := divscrape.NewDetectorSet(names...)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := divscrape.NewDetectorSet(names...)
	if err != nil {
		t.Fatal(err)
	}
	// The fault point is the same for every set, so the clean run comes first.
	want := make([][]divscrape.Verdict, len(events))
	for i, ev := range events {
		want[i] = make([]divscrape.Verdict, clean.Len())
		mustInspect(t, clean, ev.Entry, want[i])
	}
	got := make([]divscrape.Verdict, faulty.Len())
	faultinject.Enable("shard.inspect.trajectory", faultinject.Fault{Panic: "trajectory bug", After: 500, Times: 1})
	var panics []*divscrape.PanicError
	for i, ev := range events {
		if err := faulty.InspectInto(ev.Entry, got); err != nil {
			var pe *divscrape.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("entry %d: InspectInto returned %v, want a *PanicError", i, err)
			}
			if pe.Seq != uint64(i) {
				t.Fatalf("entry %d: the panic names request %d", i, pe.Seq)
			}
			panics = append(panics, pe)
		}
		if got[0] != want[i][0] || got[1] != want[i][1] {
			t.Fatalf("entry %d: sentinel and arcane judged %+v %+v beside the panic, %+v %+v without it",
				i, got[0], got[1], want[i][0], want[i][1])
		}
	}
	if len(panics) != 1 || panics[0].Side != "trajectory" || panics[0].Value != "trajectory bug" {
		t.Fatalf("panics %+v, want trajectory's one", panics)
	}
}

// A detector that panics costs Analyze that detector's verdicts while it
// sits out, never the run: the sharded engine finishes the stream, the
// Summary comes back with an error naming the panic, and the other
// detectors' tables are those of a run without it.
func TestChaosAnalyzeSurvivesADetectorPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	opts := divscrape.Options{Detectors: []string{"sentinel", "arcane", "trajectory"}, Shards: 3}
	clean, err := divscrape.Analyze(divscrape.Generated(setGen(t, 42, 2*time.Hour)), opts)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable("shard.inspect.trajectory", faultinject.Fault{Panic: "trajectory bug", After: 500, Times: 1})
	got, err := divscrape.Analyze(divscrape.Generated(setGen(t, 42, 2*time.Hour)), opts)
	var pe *divscrape.PanicError
	if !errors.As(err, &pe) || pe.Side != "trajectory" || pe.Value != "trajectory bug" || pe.Shard >= 3 || pe.Seq >= clean.Total() {
		t.Fatalf("Analyze returned %v", err)
	}
	if got == nil || got.Total() != clean.Total() || got.Contingency() != clean.Contingency() ||
		got.Commercial() != clean.Commercial() || got.Behavioural() != clean.Behavioural() {
		t.Fatalf("summary with the panic %+v, without %+v", got, clean)
	}
}
