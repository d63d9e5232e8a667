package trajectory

import (
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/workload"
)

// runWorkload streams a generated window through one detector and returns
// per-archetype request-level confusion matrices.
func runWorkload(t *testing.T, d *Detector, seed uint64, dur time.Duration) map[detector.Archetype]*evaluate.Confusion {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: seed, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	enr := detector.NewEnricher(iprep.BuildFeed())
	byArch := make(map[detector.Archetype]*evaluate.Confusion)
	var req detector.Request
	var v detector.Verdict
	err = gen.Run(func(ev workload.Event) error {
		enr.EnrichInto(&req, ev.Entry)
		d.InspectInto(&req, &v)
		c := byArch[ev.Label.Archetype]
		if c == nil {
			c = &evaluate.Confusion{}
			byArch[ev.Label.Archetype] = c
		}
		c.Add(v.Alert, ev.Label.Malicious())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return byArch
}

// TestWorkloadCalibration pins the detector's operating point on a held-out
// day of traffic (a different seed from the default model's training
// window): benign archetypes stay quiet, the navigationally distinctive
// scrapers are caught at request level. Headless browsers deliberately sit
// outside this detector's reach — they replay full browser trajectories,
// and catching them is what the *other* two detectors are for.
func TestWorkloadCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full-day workload sweep")
	}
	d, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	byArch := runWorkload(t, d, 0xE13_0001, 24*time.Hour)
	for arch, c := range byArch {
		t.Logf("%-18s total=%6d TP=%6d FP=%5d FN=%6d sens=%.3f fpr=%.4f",
			arch, c.Total(), c.TP, c.FP, c.FN, c.Sensitivity(), c.FPR())
	}

	benign := evaluate.Confusion{}
	for _, arch := range []detector.Archetype{
		detector.ArchetypeHuman, detector.ArchetypeSearchBot,
		detector.ArchetypeMonitor, detector.ArchetypePartnerAPI,
	} {
		if c := byArch[arch]; c != nil {
			benign.FP += c.FP
			benign.TN += c.TN
		}
	}
	if fpr := benign.FPR(); fpr > 0.005 {
		t.Errorf("benign FPR %.4f, want <= 0.005", fpr)
	}
	for _, want := range []struct {
		arch    detector.Archetype
		minSens float64
	}{
		{detector.ArchetypeScraperNaive, 0.90},
		{detector.ArchetypeScraperKnownInfra, 0.90},
		{detector.ArchetypeScraperAggressive, 0.60},
		{detector.ArchetypeScraperStealth, 0.30},
	} {
		c := byArch[want.arch]
		if c == nil {
			t.Errorf("no %s traffic in window", want.arch)
			continue
		}
		if s := c.Sensitivity(); s < want.minSens {
			t.Errorf("%s sensitivity %.3f, want >= %.2f", want.arch, s, want.minSens)
		}
	}
}
