package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"time"

	"divscrape/internal/logfmt"
	"divscrape/internal/workload"
)

// traffic names a seeded traffic mix. The program under test never sees
// the name, only the bytes or requests generated from it.
type traffic struct {
	// visitors and bots, when non-zero, replace the calibrated profile's
	// HumanVisitors and StealthBots: the wide, churning population.
	visitors, bots int
	duration       time.Duration
}

// scale sizes every workload's traffic. full is what BENCHMARK.json
// measures; tiny exists so the smoke test finishes in seconds.
type scale struct {
	name  string
	paper traffic
	wide  traffic
	guard traffic
	// slab is the staged pass's batch size in lines.
	slab int
	// setups is how many times set-up is repeated for its median.
	setups int
}

var scales = map[string]scale{
	"full": {
		name:   "full",
		paper:  traffic{duration: 24 * time.Hour},
		wide:   traffic{visitors: 40000, bots: 2000, duration: 6 * time.Hour},
		guard:  traffic{visitors: 40000, bots: 2000, duration: 2 * time.Hour},
		slab:   4096,
		setups: 5,
	},
	"tiny": {
		name:   "tiny",
		paper:  traffic{duration: time.Hour},
		wide:   traffic{visitors: 2000, bots: 100, duration: 3 * time.Hour},
		guard:  traffic{visitors: 2000, bots: 100, duration: time.Hour},
		slab:   512,
		setups: 1,
	},
}

// inputs is one workload's generated traffic: the event list, and for
// the replay workloads the Combined Log Format file on disk.
type inputs struct {
	events []workload.Event
	// lines is the event count, kept when events is released.
	lines int
	// path is the access log; empty when the workload replays requests
	// rather than bytes.
	path  string
	bytes int64
	// sha256 identifies the generated bytes (the rendered log, also for
	// workloads that never write it), for the determinism test.
	sha256 string
}

// generate builds the traffic for seed. When dir is non-empty the
// rendered log is written to a fresh file there.
func generate(tr traffic, seed uint64, dir string) (*inputs, error) {
	p := workload.CalibratedProfile(1)
	if tr.visitors > 0 {
		p.HumanVisitors, p.StealthBots = tr.visitors, tr.bots
	}
	g, err := workload.NewGenerator(workload.Config{Seed: seed, Duration: tr.duration, Profile: p})
	if err != nil {
		return nil, err
	}
	evs, err := g.Generate()
	if err != nil {
		return nil, err
	}
	if len(evs) == 0 {
		return nil, fmt.Errorf("seed %d generated no events", seed)
	}
	in := &inputs{events: evs, lines: len(evs)}
	h := sha256.New()
	var w *bufio.Writer
	var f *os.File
	if dir != "" {
		f, err = os.CreateTemp(dir, "access-*.log")
		if err != nil {
			return nil, err
		}
		in.path = f.Name()
		w = bufio.NewWriterSize(f, 1<<20)
	}
	buf := make([]byte, 0, 1024)
	for i := range evs {
		buf = logfmt.AppendCombined(buf[:0], &evs[i].Entry)
		buf = append(buf, '\n')
		h.Write(buf)
		in.bytes += int64(len(buf))
		if w != nil {
			if _, err := w.Write(buf); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	in.sha256 = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// remove deletes the log file, if one was written.
func (in *inputs) remove() {
	if in != nil && in.path != "" {
		os.Remove(in.path)
	}
}

// inputStats describes the generated traffic; every layer row is read
// against it.
type inputStats struct {
	bytesPerLine    float64
	distinctClients int
	distinctUAs     int
	top10Share      float64
}

func (in *inputs) stats() inputStats {
	clients := make(map[string]int)
	uas := make(map[string]struct{})
	for i := range in.events {
		e := &in.events[i].Entry
		clients[e.RemoteAddr]++
		uas[e.UserAgent] = struct{}{}
	}
	counts := make([]int, 0, len(clients))
	for _, c := range clients {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	for i := 0; i < len(counts) && i < 10; i++ {
		top += counts[i]
	}
	n := len(in.events)
	return inputStats{
		bytesPerLine:    float64(in.bytes) / float64(n),
		distinctClients: len(clients),
		distinctUAs:     len(uas),
		top10Share:      float64(top) / float64(n),
	}
}

// tempDir makes the run's scratch directory under root and returns it
// with its cleanup.
func tempDir(root string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
