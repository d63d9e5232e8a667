package shard

import (
	"fmt"
	"testing"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/sentinel"
	"divscrape/internal/sitemodel"
	"divscrape/internal/trace"
)

// alarm is a side that always alerts with a fixed score.
type alarm struct{ name string }

func (a alarm) Name() string { return a.name }
func (a alarm) Reset()       {}
func (a alarm) Inspect(req *detector.Request) (v detector.Verdict) {
	a.InspectInto(req, &v)
	return v
}
func (a alarm) InspectInto(_ *detector.Request, out *detector.Verdict) {
	*out = detector.Verdict{Alert: true, Score: 0.9}
}

var base = time.Date(2018, 3, 11, 9, 0, 0, 0, time.UTC)

func request(enr *detector.Enricher, ip, method, path string, at time.Time) detector.Request {
	return enr.Enrich(logfmt.Entry{
		RemoteAddr: ip, Identity: "-", AuthUser: "-", Time: at, Method: method, Path: path,
		Proto: "HTTP/1.1", Status: 200, Referer: "-", UserAgent: "python-requests/2.18.4",
	})
}

// Every flow × engine × barrier outcome × refusal setting: the engine
// judges exactly the requests it should, the outcome and the flight record
// carry ladder fields exactly then, and a side that sat out leaves a zero
// verdict behind.
func TestJudgeLadderOrNone(t *testing.T) {
	static, graduated := mitigate.StaticBlock(false), mitigate.Graduated()
	policies := []struct {
		name      string
		policy    *mitigate.Policy
		challenge bool
	}{{"none", nil, false}, {"static", &static, false}, {"graduated", &graduated, true}}
	flows := []struct {
		method, path string
		flow         Flow
	}{
		{"GET", "/product/7", FlowNone},
		{"GET", sitemodel.ChallengeScriptPath, FlowScript},
		{"POST", sitemodel.ChallengeVerifyPath, FlowVerify},
		{"POST", sitemodel.ChallengeVerifyPath + "?x=1", FlowVerify},
		// Neither is the beacon: the wrong method, and a path that only
		// decodes to it.
		{"GET", sitemodel.ChallengeVerifyPath, FlowNone},
		{"POST", "/__verif%79", FlowNone},
	}
	enr := detector.NewEnricher(nil)
	for _, pol := range policies {
		for _, fl := range flows {
			for _, skip := range []bool{false, true} {
				for _, refuse := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s %s/skip=%v/refuse=%v", pol.name, fl.method, fl.path, skip, refuse)
					var recs []trace.Record
					tr := trace.New(trace.Config{
						Detectors: []string{"a", "b"},
						Recorder:  trace.RecorderConfig{Sink: func(r trace.Record) { recs = append(recs, r) }},
					})
					s, err := New([]detector.Detector{alarm{"a"}, alarm{"b"}}, pol.policy, nil)
					if err != nil {
						t.Fatal(err)
					}
					s.Names, s.RefuseDegraded, s.Tracer = []string{"a", "b"}, refuse, tr
					if skip {
						s.Barrier = func(i int, req *detector.Request, v *detector.Verdict) bool {
							s.Dets[i].InspectInto(req, v) // what a side leaves behind before it panics
							return i != 1
						}
					}
					req := request(enr, "10.0.0.1", fl.method, fl.path, base)
					var out Outcome
					s.Judge(&req, &out)

					wantFlow := FlowNone
					if pol.challenge {
						wantFlow = fl.flow
					}
					wantJudged := pol.policy != nil && wantFlow == FlowNone && !(skip && refuse)
					if out.Flow != wantFlow || out.Degraded != skip || out.Judged != wantJudged {
						t.Fatalf("%s: outcome %+v, want flow %d degraded %v judged %v", name, out, wantFlow, skip, wantJudged)
					}
					if !wantJudged && out.Ladder != (mitigate.Decision{}) {
						t.Fatalf("%s: no engine judged, ladder %+v", name, out.Ladder)
					}
					if pol.name == "static" && wantJudged && out.Ladder.Action != mitigate.Block {
						t.Fatalf("%s: static block policy decided %+v on an alert", name, out.Ladder)
					}
					v := s.Verdicts()
					if !v[0].Alert || v[1].Alert == skip || (skip && v[1] != detector.Verdict{}) {
						t.Fatalf("%s: verdicts %+v", name, v)
					}
					if len(recs) != 1 {
						t.Fatalf("%s: %d flight records, want 1 (head sampling)", name, len(recs))
					}
					r := recs[0]
					if (r.Action != "") != wantJudged || (r.RungBefore != "") != wantJudged || (r.RungAfter != "") != wantJudged {
						t.Fatalf("%s: record ladder fields %q %q->%q, judged %v", name, r.Action, r.RungBefore, r.RungAfter, wantJudged)
					}
					if r.Detectors[1].Skipped != skip {
						t.Fatalf("%s: record marks side b skipped=%v", name, r.Detectors[1].Skipped)
					}
				}
			}
		}
	}
}

// A verified beacon reaches the engine as a solved challenge, not as a
// request: the client's pass window opens and nothing is tallied.
func TestJudgeBeaconPassesTheChallenge(t *testing.T) {
	graduated := mitigate.Graduated()
	s, err := New([]detector.Detector{alarm{"a"}, alarm{"b"}}, &graduated, nil)
	if err != nil {
		t.Fatal(err)
	}
	enr := detector.NewEnricher(nil)
	for i := 0; s.Engine.Level("10.0.0.1") < mitigate.Challenge; i++ {
		req := request(enr, "10.0.0.1", "GET", "/product/1", base.Add(time.Duration(i)*time.Second))
		s.Judge(&req, new(Outcome))
	}
	tallied := s.Engine.Counts().Total()
	req := request(enr, "10.0.0.1", "POST", sitemodel.ChallengeVerifyPath, base.Add(time.Minute))
	var out Outcome
	if s.Judge(&req, &out); out.Flow != FlowVerify || out.Judged {
		t.Fatalf("beacon outcome %+v", out)
	}
	if lvl := s.Engine.Level("10.0.0.1"); lvl != mitigate.Tarpit {
		t.Errorf("rung after the beacon = %v, want tarpit", lvl)
	}
	if got := s.Engine.Counts().Total(); got != tallied {
		t.Errorf("the beacon was tallied as a decision: %d → %d", tallied, got)
	}
}

// realShard builds a shard on the paper's pair.
func realShard(t testing.TB, policy *mitigate.Policy, window time.Duration) *Shard {
	t.Helper()
	sen, err := sentinel.New(sentinel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	arc, err := arcane.New(arcane.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New([]detector.Detector{sen, arc}, policy, iprep.BuildFeed())
	if err != nil {
		t.Fatal(err)
	}
	s.Window = window
	return s
}

// Sweep drops what Engine.Sweep, detector.EvictBefore and the enricher's
// EvictBefore drop: twin shards fed one stream through their own Enrich,
// one swept whole and one by hand. Shard enrichment is the plain
// enricher's, sequence number aside.
func TestSweepIsEngineSweepPlusEvictBefore(t *testing.T) {
	graduated := mitigate.Graduated()
	const window = 30 * time.Minute
	a, b := realShard(t, &graduated, window), realShard(t, &graduated, window)
	enr := detector.NewEnricher(iprep.BuildFeed())
	for i := 0; i < 400; i++ {
		// Forty clients, each quiet after its tenth request.
		req := request(enr, fmt.Sprintf("10.0.%d.9", i%40), "GET", fmt.Sprintf("/product/%d", i), base.Add(time.Duration(i)*time.Second))
		for _, s := range []*Shard{a, b} {
			own := detector.Request{Seq: req.Seq, Entry: req.Entry}
			if s.Enrich(&own); own != req {
				t.Fatalf("request %d: shard enriched\n %+v\nthe enricher\n %+v", i, own, req)
			}
			s.Judge(&own, new(Outcome))
		}
	}
	now := base.Add(5 * time.Hour)
	cut := now.Add(-window)
	want := b.Engine.Sweep(now) + detector.EvictBefore(b.Dets, cut)
	if got := a.Sweep(now); got != want || got == 0 {
		t.Fatalf("Sweep dropped %d entries, by hand %d", got, want)
	}
	if byHand, left := b.enr.EvictBefore(cut), a.enr.EvictBefore(cut); byHand != 40 || left != 0 {
		t.Fatalf("the enricher held %d idle addresses, and %d after Sweep; want 40 and 0", byHand, left)
	}
	if a.Engine.Len() != b.Engine.Len() {
		t.Errorf("engines hold %d and %d clients after the sweep", a.Engine.Len(), b.Engine.Len())
	}
	if c := realShard(t, nil, 0); c.Sweep(now) != 0 {
		t.Error("a shard with no engine and no window swept something")
	}
}

// Judge allocates nothing in steady state, with and without an engine.
func TestJudgeZeroAllocs(t *testing.T) {
	graduated := mitigate.Graduated()
	for name, policy := range map[string]*mitigate.Policy{"no engine": nil, "graduated": &graduated} {
		s := realShard(t, policy, 0)
		enr := detector.NewEnricher(iprep.BuildFeed())
		reqs := make([]detector.Request, 64)
		for i := range reqs {
			reqs[i] = request(enr, fmt.Sprintf("10.1.0.%d", i%8), "GET", fmt.Sprintf("/product/%d", i%16), base.Add(time.Duration(i)*time.Second))
			s.Judge(&reqs[i], new(Outcome)) // warm every client's state
		}
		i := 0
		var out Outcome
		if avg := testing.AllocsPerRun(500, func() {
			s.Judge(&reqs[i%len(reqs)], &out)
			i++
		}); avg != 0 {
			t.Errorf("%s: %.2f allocs per Judge, want 0", name, avg)
		}
	}
}

func TestOfKeyFollowsEnrichment(t *testing.T) {
	enr := detector.NewEnricher(nil)
	for _, key := range []string{"203.0.113.9", "10.0.0.1", "2001:db8::1", "not-an-address", ""} {
		req := request(enr, key, "GET", "/", base)
		for _, n := range []int{1, 3, 8} {
			i, ok := OfKey(key, n)
			if i != Of(req.IP, n) {
				t.Errorf("OfKey(%q, %d) = %d, its requests route to %d", key, n, i, Of(req.IP, n))
			}
			if ok != (req.IP != 0) {
				t.Errorf("OfKey(%q) ok = %v with enriched address %d", key, ok, req.IP)
			}
		}
	}
}
