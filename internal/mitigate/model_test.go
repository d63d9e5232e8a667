package mitigate

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

// ladderModel is the ladder as Policy and Engine document it and nothing
// more: a map of clients with wall-clock times, one engine, every sweep a
// scan. The engine keeps the same state in a slab with a free list behind
// a key map that rebuilds itself, split across key-partitioned engines.
type ladderModel struct {
	p       Policy
	clients map[string]*modelClient
	counts  ActionCounts
	frozen  bool
}

type modelClient struct {
	score      float64
	level      Action
	challenged int       // unanswered challenged requests in a row
	passUntil  time.Time // zero until a challenge is passed
	lastSeen   time.Time
}

// at returns key's client decayed to now, starting it if it is new.
func (m *ladderModel) at(key string, now time.Time) *modelClient {
	c, ok := m.clients[key]
	if !ok {
		c = &modelClient{lastSeen: now}
		m.clients[key] = c
	}
	dt := now.Sub(c.lastSeen)
	if dt > 0 {
		c.score *= math.Exp2(-float64(dt) / float64(m.p.ScoreHalfLife))
	}
	if dt >= m.p.IdleTTL && c.score < m.p.TarpitThreshold-m.p.Hysteresis {
		c.score, c.level, c.challenged = 0, Allow, 0
	}
	c.lastSeen = now
	return c
}

func (m *ladderModel) threshold(l Action) float64 {
	return [...]float64{0, m.p.TarpitThreshold, m.p.ChallengeThreshold, m.p.BlockThreshold}[l]
}

func (m *ladderModel) apply(key string, now time.Time, a Assessment) Decision {
	c := m.at(key, now)
	if a.Alerted {
		c.score += a.Score
	} else {
		c.score += a.Score * m.p.BenignWeight
	}
	c.score = min(c.score, m.p.ScoreCap)
	// One rung up per request; down while below the rung's band.
	if c.level < Block && c.score >= m.threshold(c.level+1) {
		if !m.frozen {
			c.level++
		}
	} else {
		for c.level > Allow && c.score < m.threshold(c.level)-m.p.Hysteresis {
			c.level--
		}
	}
	if c.level < Challenge {
		c.challenged = 0
	}
	action := c.level
	if c.level == Challenge && c.passUntil.After(now) {
		action = Tarpit
	} else if c.level == Challenge {
		if c.challenged++; c.challenged > m.p.ChallengeBudget && !m.frozen {
			c.level, action = Block, Block
			c.score = max(c.score, m.p.BlockThreshold)
		}
	}
	m.counts.Count(action)
	d := Decision{Action: action, Tagged: a.Alerted, Level: c.level, Score: c.score}
	if action == Tarpit {
		d.Delay = m.p.TarpitDelay
	}
	return d
}

func (m *ladderModel) challengePassed(key string, now time.Time) {
	c := m.at(key, now)
	if c.level == Block || c.passUntil.After(now) {
		return
	}
	c.passUntil, c.challenged, c.score = now.Add(m.p.ChallengeTTL), 0, c.score/2
	if c.level == Challenge {
		c.level = Tarpit
	}
}

// evict drops every client idle for at least idle as of now whose score,
// decayed to now, is in the Allow band with no live pass.
func (m *ladderModel) evict(now time.Time, idle time.Duration) int {
	n := 0
	for key, c := range m.clients {
		dt := now.Sub(c.lastSeen)
		if dt >= idle && !c.passUntil.After(now) &&
			c.score*math.Exp2(-float64(dt)/float64(m.p.ScoreHalfLife)) < m.p.TarpitThreshold-m.p.Hysteresis {
			delete(m.clients, key)
			n++
		}
	}
	return n
}

// partOf spreads keys over n engines the way a sharded host does.
func partOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// keySpellings are the kinds of key an engine indexes: a canonical dotted
// quad (filed by number) and spellings it files by string — the same
// address written with a leading zero or a sign, IPv6, and a name. The
// model keeps all of them as strings, so a merge of two kinds shows.
var keySpellings = []string{"10.0.%d.%d", "10.0.%d.0%d", "+10.0.%d.%d", "2001:db8::%x:%x", "client-%d-%d"}

// Random sequences of observe, decay, challenge pass and fail, sweep,
// snapshot-restore and rebalance across 1–4 engines must leave the engines
// and the model agreeing on every decision, rung, client count and tally,
// over every kind of key. Crowds of one-request clients that a sweep then
// drops take the engines' slabs through the free list and their rebuilds.
func TestEngineMatchesLadderModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &ladderModel{p: Graduated(), clients: make(map[string]*modelClient)}
		engines := newEngines(t, 1+rng.Intn(4))
		now := time.Date(2018, 3, 11, 0, 0, 0, 0, time.UTC)
		key := func() string {
			return fmt.Sprintf(keySpellings[rng.Intn(len(keySpellings))], 0, rng.Intn(24))
		}
		for step := 0; step < 4000; step++ {
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d: "+format, append([]any{seed, step}, args...)...)
			}
			switch op := rng.Intn(100); {
			case op < 55: // observe, often a run of alerts: unanswered challenges
				k, a := key(), Assessment{Alerted: rng.Intn(3) > 0, Score: rng.Float64() * 1.2}
				for n := 1 + rng.Intn(4); n > 0; n-- {
					now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
					want := m.apply(k, now, a)
					if got := engines[partOf(k, len(engines))].Apply(k, now, a); got != want {
						fail("Apply(%s) = %+v, model %+v", k, got, want)
					}
				}
			case op < 63: // challenge passed
				k := key()
				m.challengePassed(k, now)
				engines[partOf(k, len(engines))].ChallengePassed(k, now)
			case op < 73: // decay: the clock moves minutes to hours
				now = now.Add(time.Duration(rng.Int63n(int64(3 * time.Hour))))
			case op < 76: // a crowd of one-request benign clients
				for n, base := 50+rng.Intn(250), rng.Intn(1<<16); n > 0; n-- {
					k := fmt.Sprintf(keySpellings[rng.Intn(len(keySpellings))], 1+(base+n)>>8&255, (base+n)&255)
					m.apply(k, now, Assessment{})
					engines[partOf(k, len(engines))].Apply(k, now, Assessment{})
				}
			case op < 84:
				want, got := m.evict(now, m.p.IdleTTL), 0
				for _, e := range engines {
					got += e.Sweep(now)
				}
				if got != want {
					fail("Sweep dropped %d clients, model %d", got, want)
				}
			case op < 88:
				cutoff := now.Add(-time.Duration(rng.Int63n(int64(4 * time.Hour))))
				want, got := m.evict(cutoff, 1), 0
				for _, e := range engines {
					got += e.EvictBefore(cutoff)
				}
				if got != want {
					fail("EvictBefore dropped %d clients, model %d", got, want)
				}
			case op < 90:
				m.frozen = !m.frozen
				for _, e := range engines {
					e.SetEscalationFrozen(m.frozen)
				}
			default: // snapshot, and restore at the same or another engine count
				w := statecodec.NewWriter()
				SnapshotMerged(w, engines)
				if w.Err() != nil {
					fail("snapshot: %v", w.Err())
				}
				engines = newEngines(t, 1+rng.Intn(4))
				for _, e := range engines {
					e.SetEscalationFrozen(m.frozen)
				}
				n := len(engines)
				if err := RestorePartitioned(statecodec.NewReader(w.Bytes()), engines, func(k string) int { return partOf(k, n) }); err != nil {
					fail("restore: %v", err)
				}
			}
			var counts ActionCounts
			clients := 0
			for _, e := range engines {
				counts.Add(e.Counts())
				clients += e.Len()
			}
			if clients != len(m.clients) || counts != m.counts {
				fail("engines hold %d clients, tally %+v; model %d, %+v", clients, counts, len(m.clients), m.counts)
			}
			for k, c := range m.clients {
				if got := engines[partOf(k, len(engines))].Level(k); got != c.level {
					fail("client %s on rung %v, model %v", k, got, c.level)
				}
			}
		}
	}
}

func newEngines(t testing.TB, n int) []*Engine {
	engines := make([]*Engine, n)
	for i := range engines {
		e, err := New(Graduated())
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}
