package experiments

import (
	"fmt"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/registry"
	"divscrape/internal/report"
	"divscrape/internal/shard"
	"divscrape/internal/sitemodel"
	"divscrape/internal/workload"
)

// E12: containment efficacy. The detection experiments ask "who did we
// flag"; this one asks the question the products exist to answer: "how
// much did the scrapers actually get, and at what human cost?" Each pass
// replays the same seeded workload through the closed loop — detectors →
// adjudicator → mitigation engine → adaptive actor reaction — under one
// response policy, so the arms race (back off on tarpit, rotate on block,
// solve or fail challenges) is simulated rather than assumed.

// MitigationSpec is one closed-loop pass configuration.
type MitigationSpec struct {
	// PolicyName labels the response policy in reports.
	PolicyName string
	// Policy is the response policy under test. Its ConfirmedOnly picks
	// the adjudication over the detector pair: unset acts on either tool
	// (1oo2, maximum detection), set only on both (2oo2, minimum false
	// alarms).
	Policy mitigate.Policy
}

// MitigationResult is one pass's containment-efficacy measurement.
type MitigationResult struct {
	// Policy and Adjudicator identify the pass.
	Policy      string
	Adjudicator string
	// Total is the number of requests the pass served.
	Total uint64
	// MaliciousRequests / BenignRequests partition Total by ground truth.
	MaliciousRequests, BenignRequests uint64
	// Actions tallies enforcement decisions across all requests.
	Actions mitigate.ActionCounts
	// TarpitDelay is the summed stall imposed on tarpitted responses —
	// the enforcement cost the site pays in held-open connections.
	TarpitDelay time.Duration
	// ChallengesPassed counts solved challenge beacons.
	ChallengesPassed uint64
	// Leaked counts malicious content-page requests (product, price,
	// category, search) that were actually served — the pages the
	// scrapers walked away with.
	Leaked uint64
	// Collateral counts benign requests denied content (challenged or
	// blocked): the human cost of the policy.
	Collateral uint64
	// MaliciousActors is the scraping population; LeakingActors how many
	// of them got at least one page.
	MaliciousActors, LeakingActors int
	// MeanTimeToContain averages, over leaking actors, the span from the
	// actor's first request to its *last* leaked page — how long each
	// campaign stayed productive before the policy shut it off (for
	// Observe this approaches the actor's lifetime).
	MeanTimeToContain time.Duration
}

// CollateralRate is the share of benign requests denied content.
func (r *MitigationResult) CollateralRate() float64 {
	if r.BenignRequests == 0 {
		return 0
	}
	return float64(r.Collateral) / float64(r.BenignRequests)
}

// DefaultMitigationSpecs enumerates the paper-relevant response policies
// crossed with both adjudication schemes.
func DefaultMitigationSpecs() []MitigationSpec {
	var specs []MitigationSpec
	for _, p := range []struct {
		name   string
		policy mitigate.Policy
	}{
		{"observe", mitigate.Observe()},
		{"tag", mitigate.Tag()},
		{"block", mitigate.StaticBlock(false)},
		{"graduated", mitigate.Graduated()},
	} {
		confirmed := p.policy
		confirmed.ConfirmedOnly = true
		specs = append(specs, MitigationSpec{p.name, p.policy}, MitigationSpec{p.name, confirmed})
	}
	return specs
}

// adjudicator labels the scheme a policy acts on.
func adjudicator(p mitigate.Policy) string {
	if p.ConfirmedOnly {
		return "2oo2"
	}
	return "1oo2"
}

// ExecuteMitigation runs the full policy × adjudicator grid at the given
// scale. Every pass regenerates the workload from the same seed, so
// differences between rows are due to the response policy alone (and the
// actors' reactions to it).
func ExecuteMitigation(scale Scale) ([]MitigationResult, error) {
	return ExecuteMitigationSpecs(scale, DefaultMitigationSpecs())
}

// ExecuteMitigationSpecs is ExecuteMitigation over a chosen set of passes.
func ExecuteMitigationSpecs(scale Scale, specs []MitigationSpec) ([]MitigationResult, error) {
	results := make([]MitigationResult, 0, len(specs))
	for _, spec := range specs {
		r, err := executeMitigationPass(scale, spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: mitigation %s/%s: %w", spec.PolicyName, adjudicator(spec.Policy), err)
		}
		results = append(results, r)
	}
	return results, nil
}

// leakedKind reports whether a page kind is catalogue content a scraping
// campaign is after.
func leakedKind(k sitemodel.PageKind) bool {
	switch k {
	case sitemodel.KindProduct, sitemodel.KindPrice, sitemodel.KindCategory, sitemodel.KindSearch:
		return true
	default:
		return false
	}
}

func executeMitigationPass(scale Scale, spec MitigationSpec) (MitigationResult, error) {
	res := MitigationResult{
		Policy:      spec.PolicyName,
		Adjudicator: adjudicator(spec.Policy),
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: scale.Seed, Duration: scale.Duration})
	if err != nil {
		return res, fmt.Errorf("generator: %w", err)
	}
	factories, err := registry.Factories(registry.Config{})
	if err != nil {
		return res, err
	}
	sh, err := shard.New(factories, nil, &spec.Policy, iprep.BuildFeed())
	if err != nil {
		return res, err
	}

	type campaign struct {
		first    time.Time
		lastLeak time.Time
		leaked   bool
	}
	campaigns := map[int]*campaign{}

	var req detector.Request
	var out shard.Outcome
	err = gen.RunClosedLoop(func(ev workload.Event) (workload.Enforcement, error) {
		// Detection sees the pre-decision view, as the inline guard does:
		// the block/allow choice cannot wait for the response.
		req.Seq, req.Entry = res.Total, ev.Entry
		sh.Enrich(&req)
		sh.Judge(&req, &out)
		dec := out.Ladder
		now, kind := ev.Entry.Time, req.Target.Kind
		// Beacons are counted under every policy: the actors solve the
		// challenge whether or not the engine hosts it.
		if kind == sitemodel.KindChallengeVerify && ev.Entry.Method == "POST" {
			res.ChallengesPassed++
		}

		res.Total++
		res.Actions.Count(dec.Action)
		if dec.Action == mitigate.Tarpit {
			res.TarpitDelay += dec.Delay
		}
		served := dec.Action == mitigate.Allow || dec.Action == mitigate.Tarpit
		if ev.Label.Malicious() {
			res.MaliciousRequests++
			c := campaigns[ev.Label.ActorID]
			if c == nil {
				c = &campaign{first: now}
				campaigns[ev.Label.ActorID] = c
			}
			if served && ev.Entry.Status == 200 && leakedKind(kind) {
				res.Leaked++
				c.leaked = true
				c.lastLeak = now
			}
		} else {
			res.BenignRequests++
			if dec.Action == mitigate.Challenge || dec.Action == mitigate.Block {
				res.Collateral++
			}
		}
		return workload.Enforcement{Action: dec.Action, Delay: dec.Delay}, nil
	})
	if err != nil {
		return res, err
	}

	res.MaliciousActors = len(campaigns)
	var span time.Duration
	for _, c := range campaigns {
		if c.leaked {
			res.LeakingActors++
			span += c.lastLeak.Sub(c.first)
		}
	}
	if res.LeakingActors > 0 {
		res.MeanTimeToContain = span / time.Duration(res.LeakingActors)
	}
	return res, nil
}

// TableMitigation renders the containment-efficacy comparison (E12).
func TableMitigation(results []MitigationResult) *report.Table {
	t := &report.Table{
		Title: "E12 — Containment efficacy by response policy",
		Columns: []string{
			"Policy", "Adj", "Requests", "Leaked", "Contain", "Collateral",
			"Tarpit", "Challenge", "Block", "Passed",
		},
		Aligns: []report.Align{
			report.Left, report.Left, report.Right, report.Right, report.Right,
			report.Right, report.Right, report.Right, report.Right, report.Right,
		},
	}
	for i := range results {
		r := &results[i]
		t.AddRow(
			r.Policy,
			r.Adjudicator,
			report.Count(r.Total),
			report.Count(r.Leaked),
			r.MeanTimeToContain.Round(time.Second).String(),
			report.Percent(r.Collateral, r.BenignRequests),
			report.Count(r.Actions.Tarpitted),
			report.Count(r.Actions.Challenged),
			report.Count(r.Actions.Blocked),
			report.Count(r.ChallengesPassed),
		)
	}
	return t
}
