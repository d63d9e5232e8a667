package experiments

import (
	"fmt"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/mitigate"
	"divscrape/internal/report"
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
	// Policy is the response policy under test.
	Policy mitigate.Policy
	// K is the adjudication threshold over the detector pair: 1 alerts on
	// either tool (maximum detection), 2 requires both (minimum false
	// alarms).
	K int
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
	// Tagged counts requests forwarded with the verdict header.
	Tagged uint64
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
	return []MitigationSpec{
		{PolicyName: "observe", Policy: mitigate.Observe(), K: 1},
		{PolicyName: "observe", Policy: mitigate.Observe(), K: 2},
		{PolicyName: "tag", Policy: mitigate.Tag(), K: 1},
		{PolicyName: "tag", Policy: mitigate.Tag(), K: 2},
		{PolicyName: "block", Policy: mitigate.StaticBlock(false), K: 1},
		{PolicyName: "block", Policy: mitigate.StaticBlock(false), K: 2},
		{PolicyName: "graduated", Policy: mitigate.Graduated(), K: 1},
		{PolicyName: "graduated", Policy: mitigate.Graduated(), K: 2},
	}
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
			return nil, fmt.Errorf("experiments: mitigation %s/%doo2: %w", spec.PolicyName, spec.K, err)
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
		Adjudicator: fmt.Sprintf("%doo2", spec.K),
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: scale.Seed, Duration: scale.Duration})
	if err != nil {
		return res, fmt.Errorf("generator: %w", err)
	}
	sen, arc, err := freshPair()
	if err != nil {
		return res, err
	}
	engine, err := mitigate.New(spec.Policy)
	if err != nil {
		return res, err
	}
	// An enricher of its own, not a pipeline's shard: the k-out-of-2
	// adjudicator feeds the ladder an assessment that shard.Judge
	// (ensemble.Assess) does not produce.
	enricher := detector.NewEnricher(iprep.BuildFeed())

	type campaign struct {
		first    time.Time
		lastLeak time.Time
		leaked   bool
	}
	campaigns := map[int]*campaign{}

	err = gen.RunClosedLoop(func(ev workload.Event) (workload.Enforcement, error) {
		// Detection sees the pre-decision view, as the inline guard does:
		// the block/allow choice cannot wait for the response.
		req := enricher.Enrich(ev.Entry)
		va, vb := sen.Inspect(&req), arc.Inspect(&req)
		confirmed := va.Alert && vb.Alert
		alerted := va.Alert || vb.Alert
		if spec.K >= 2 {
			alerted = confirmed
		}
		now := ev.Entry.Time
		info := sitemodel.ClassifyPath(ev.Entry.Path)

		// The challenge flow itself must stay reachable, or no client
		// could ever solve its way back down the ladder.
		var dec mitigate.Decision
		switch {
		case info.Kind == sitemodel.KindChallengeScript:
			dec = mitigate.Decision{Action: mitigate.Allow}
		case info.Kind == sitemodel.KindChallengeVerify && ev.Entry.Method == "POST":
			engine.ChallengePassed(ev.Entry.RemoteAddr, now)
			res.ChallengesPassed++
			dec = mitigate.Decision{Action: mitigate.Allow}
		default:
			dec = engine.Apply(ev.Entry.RemoteAddr, now, mitigate.Assessment{
				Alerted:   alerted,
				Confirmed: confirmed,
				Score:     (va.Score + vb.Score) / 2,
			})
		}

		res.Total++
		res.Actions.Count(dec.Action)
		if dec.Tagged {
			res.Tagged++
		}
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
			if served && ev.Entry.Status == 200 && leakedKind(info.Kind) {
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
