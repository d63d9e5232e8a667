package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run. Spans form a tree
// through parent (an index into the log; -1 for a root): pass → slab →
// layer for the staged passes, one root per measurement otherwise.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Start: int64(time.Since(l.t0)), Parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) { l.spans[id].End = int64(time.Since(l.t0)) }

// selfTimes sums, by name, each span's self time — its duration minus
// the part its children cover — over the subtree rooted at root.
func (l *spanLog) selfTimes(root int) map[string]int64 {
	self := make([]int64, len(l.spans))
	in := make([]bool, len(l.spans))
	in[root] = true
	// Children always follow their parent in the log.
	for i := root; i < len(l.spans); i++ {
		s := &l.spans[i]
		if i != root {
			if s.Parent < root || !in[s.Parent] {
				continue
			}
			in[i] = true
			self[s.Parent] -= s.End - s.Start
		}
		self[i] += s.End - s.Start
	}
	out := make(map[string]int64)
	for i := root; i < len(l.spans); i++ {
		if in[i] {
			out[l.spans[i].Name] += self[i]
		}
	}
	return out
}

// writeTo dumps the spans as JSON lines.
func (l *spanLog) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
