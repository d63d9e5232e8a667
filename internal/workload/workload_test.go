package workload

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/sitemodel"
)

func smallConfig(seed uint64, hours int) Config {
	return Config{
		Seed:     seed,
		Duration: time.Duration(hours) * time.Hour,
	}
}

func generate(t testing.TB, cfg Config) []Event {
	t.Helper()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestEventsAreTimeOrdered(t *testing.T) {
	events := generate(t, smallConfig(42, 6))
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Entry.Time.Before(events[i-1].Entry.Time) {
			t.Fatalf("event %d at %v precedes event %d at %v",
				i, events[i].Entry.Time, i-1, events[i-1].Entry.Time)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := generate(t, smallConfig(42, 3))
	b := generate(t, smallConfig(42, 3))
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Entry.Equal(&b[i].Entry) || a[i].Label != b[i].Label {
			t.Fatalf("event %d differs between identical runs", i)
		}
	}
	c := generate(t, smallConfig(43, 3))
	if len(a) == len(c) {
		same := true
		for i := range a {
			if !a[i].Entry.Equal(&c[i].Entry) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical runs")
		}
	}
}

func TestEventsStayInsideWindow(t *testing.T) {
	cfg := smallConfig(42, 4)
	events := generate(t, cfg)
	start := DefaultStart()
	end := start.Add(cfg.Duration)
	for i, ev := range events {
		if ev.Entry.Time.Before(start) || ev.Entry.Time.After(end) {
			t.Fatalf("event %d at %v outside [%v, %v]", i, ev.Entry.Time, start, end)
		}
	}
}

func TestAllArchetypesPresentInADay(t *testing.T) {
	events := generate(t, smallConfig(42, 24))
	seen := make(map[detector.Archetype]int)
	for _, ev := range events {
		seen[ev.Label.Archetype]++
	}
	for _, arch := range detector.Archetypes() {
		if seen[arch] == 0 {
			t.Errorf("archetype %s absent from a 24h run", arch)
		}
	}
	// Scrapers must dominate (the paper's subset is bot-heavy).
	var scraper, benign int
	for arch, n := range seen {
		if arch.Malicious() {
			scraper += n
		} else {
			benign += n
		}
	}
	if scraper < 3*benign {
		t.Errorf("traffic mix off: %d scraper vs %d benign requests", scraper, benign)
	}
}

func TestEntriesAreValidCombinedLogFormat(t *testing.T) {
	events := generate(t, smallConfig(7, 2))
	for i := range events {
		line := events[i].Entry.String()
		var back logfmt.Entry
		if err := logfmt.ParseCombinedBytes([]byte(line), &back, nil); err != nil {
			t.Fatalf("event %d does not round-trip: %v\n%s", i, err, line)
		}
		if !back.Equal(&events[i].Entry) {
			t.Fatalf("event %d mutated by round-trip", i)
		}
	}
}

// inPrefix reports whether ip falls inside p, whose host bits are zero.
func inPrefix(p iprep.Prefix, ip uint32) bool { return uint64(ip-p.IP) < p.Size() }

func TestClientAddressesComeFromThePlan(t *testing.T) {
	events := generate(t, smallConfig(42, 6))
	all := [][]iprep.Prefix{
		iprep.ResidentialRanges, iprep.MobileRanges, iprep.CorporateRanges,
		iprep.DatacenterRanges, iprep.DatacenterUnlistedRanges,
		iprep.ProxyRanges, iprep.TorExitRanges,
		iprep.SearchEngineRanges, iprep.KnownScraperRanges,
	}
	inPlan := func(ip uint32) bool {
		for _, ranges := range all {
			for _, p := range ranges {
				if inPrefix(p, ip) {
					return true
				}
			}
		}
		return false
	}
	for i, ev := range events {
		ip, err := iprep.ParseIPv4(ev.Entry.RemoteAddr)
		if err != nil {
			t.Fatalf("event %d has invalid address %q", i, ev.Entry.RemoteAddr)
		}
		if !inPlan(ip) {
			t.Fatalf("event %d address %s outside the address plan", i, ev.Entry.RemoteAddr)
		}
	}
}

func TestLabelsAlignWithBehaviour(t *testing.T) {
	events := generate(t, smallConfig(42, 24))
	for i, ev := range events {
		arch := ev.Label.Archetype
		// Partner traffic carries credentials; nothing else does.
		hasAuth := ev.Entry.AuthUser != "-" && ev.Entry.AuthUser != ""
		if hasAuth != (arch == detector.ArchetypePartnerAPI) {
			t.Fatalf("event %d: auth=%q but archetype=%s", i, ev.Entry.AuthUser, arch)
		}
		if arch == detector.ArchetypeSearchBot {
			ip, _ := iprep.ParseIPv4(ev.Entry.RemoteAddr)
			ok := false
			for _, p := range iprep.SearchEngineRanges {
				if inPrefix(p, ip) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("search bot event %d from non-verified range %s", i, ev.Entry.RemoteAddr)
			}
		}
	}
}

func TestHumansExecuteChallenge(t *testing.T) {
	events := generate(t, smallConfig(42, 24))
	humanVerify := 0
	scraperStealthVerify := 0
	for _, ev := range events {
		if ev.Entry.Path == sitemodel.ChallengeVerifyPath {
			switch ev.Label.Archetype {
			case detector.ArchetypeHuman:
				humanVerify++
			case detector.ArchetypeScraperStealth:
				scraperStealthVerify++
			}
		}
	}
	if humanVerify == 0 {
		t.Error("no human challenge verifications in a full day")
	}
	if scraperStealthVerify != 0 {
		t.Error("stealth bots must not execute the challenge")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := CalibratedProfile(1)
	bad.NaiveScrapers = -1
	if _, err := NewGenerator(Config{Profile: bad, Duration: time.Hour}); err == nil {
		t.Error("negative actor count accepted")
	}
	bad2 := CalibratedProfile(1)
	bad2.CrawlDuty = 1.5
	if _, err := NewGenerator(Config{Profile: bad2, Duration: time.Hour}); err == nil {
		t.Error("duty > 1 accepted")
	}
	bad3 := CalibratedProfile(1)
	bad3.MarathonShare = -0.1
	if _, err := NewGenerator(Config{Profile: bad3, Duration: time.Hour}); err == nil {
		t.Error("negative marathon share accepted")
	}
	if CalibratedProfile(0).Total() == 0 {
		t.Error("zero scale should clamp, not empty the profile")
	}
	if CalibratedProfile(2).HumanVisitors <= CalibratedProfile(1).HumanVisitors {
		t.Error("scale factor not applied")
	}
}

func TestGeneratorConfigDefaults(t *testing.T) {
	gen, err := NewGenerator(Config{Seed: 1, Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.cfg
	if cfg.Start != DefaultStart() {
		t.Errorf("default start = %v", cfg.Start)
	}
	if cfg.Site == nil || cfg.Profile.isZero() {
		t.Error("defaults not applied")
	}
}

func TestWriteDatasetAndReadLabels(t *testing.T) {
	gen, err := NewGenerator(smallConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	var logBuf, labelBuf bytes.Buffer
	n, err := WriteDataset(gen, &logBuf, &labelBuf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty dataset")
	}

	labels, err := ReadLabels(&labelBuf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(labels)) != n {
		t.Fatalf("label count %d != request count %d", len(labels), n)
	}

	// Log lines parse and count matches.
	lr := logfmt.NewReader(&logBuf, logfmt.ReaderConfig{})
	var logCount uint64
	for {
		_, err := lr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		logCount++
	}
	if logCount != n {
		t.Fatalf("log line count %d != %d", logCount, n)
	}
}

func TestReadLabelsErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"bad header", "wrong,header\n0,1,human\n"},
		{"short row", "seq,actor_id,archetype\n0,1\n"},
		{"bad seq", "seq,actor_id,archetype\nx,1,human\n"},
		{"out of order", "seq,actor_id,archetype\n1,1,human\n"},
		{"bad actor", "seq,actor_id,archetype\n0,x,human\n"},
		{"bad archetype", "seq,actor_id,archetype\n0,1,alien\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadLabels(bytes.NewReader([]byte(tt.give))); err == nil {
				t.Error("malformed labels accepted")
			}
		})
	}
}

func TestDiurnalHumanActivity(t *testing.T) {
	events := generate(t, smallConfig(42, 24))
	night, day := 0, 0
	for _, ev := range events {
		if ev.Label.Archetype != detector.ArchetypeHuman {
			continue
		}
		h := ev.Entry.Time.Hour()
		if h >= 2 && h < 6 {
			night++
		}
		if h >= 14 && h < 18 {
			day++
		}
	}
	if day <= night {
		t.Errorf("human traffic not diurnal: night(2-6h)=%d day(14-18h)=%d", night, day)
	}
}

func BenchmarkGenerate24h(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen, err := NewGenerator(smallConfig(42, 24))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = gen.Run(func(Event) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(n), "events/run")
	}
}
