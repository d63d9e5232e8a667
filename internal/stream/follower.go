// Package stream is the ingestion plane that turns the replay toolkit
// into a long-running service: a bounded-memory, tail-style log Follower
// that survives rotation and truncation, and a windowed eviction Sweeper
// that drives the TTL hooks every stateful layer exposes, so detection
// state stays O(clients active in the window) over days of uptime.
//
// The Follower is a pull-based pipeline.EntrySource: the pipeline asks
// for the next entry when it has capacity, which is what makes ingestion
// backpressure-aware for free — a slow detection stage simply stops
// pulling, the follower stops reading, and the log file itself is the
// buffer (no unbounded in-process queue to grow). Its working set is one
// read chunk plus one partial-line buffer, both reused for the life of
// the follower and bounded by the configured line limit.
package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"divscrape/internal/faultinject"
	"divscrape/internal/logfmt"
)

// fiRead lets the chaos suite inject transient read failures into the
// tail; disarmed it costs one atomic load per fill.
var fiRead = faultinject.At("stream.read")

// FollowerConfig parameterises NewFollower.
type FollowerConfig struct {
	// Path is the log file to follow. The file may not exist yet (a
	// rotation target); the follower waits for it.
	Path string
	// Policy selects malformed-line handling. Live logs see truncated
	// writes during rotation, so the default is logfmt.Skip; logfmt.Strict
	// turns the first malformed line into a terminal error.
	Policy logfmt.ErrPolicy
	// PollInterval is how long to wait at end-of-file before probing for
	// new data or rotation. Default 200ms.
	PollInterval time.Duration
	// MaxLineBytes bounds a single log line; longer lines are discarded
	// as malformed. This is also the bound on the follower's partial-line
	// buffer. Default 1 MiB.
	MaxLineBytes int
	// Sleep implements the poll wait; defaults to time.Sleep. Tests
	// substitute a hook that coordinates with the writer instead of
	// sleeping.
	Sleep func(time.Duration)
	// MaxReadBackoff caps the exponential backoff between retries of a
	// failed read. A transient I/O error (an NFS hiccup, a storage
	// reset) is retried rather than killing the tail; the backoff
	// starts at PollInterval and doubles per consecutive failure up to
	// this cap. Default 5s.
	MaxReadBackoff time.Duration
	// Jitter spreads each retry backoff by ±this fraction, so a fleet of
	// followers sharing a recovering device does not retry in lockstep.
	// Zero selects 0.2; negative disables jitter entirely.
	Jitter float64
	// Rand is the jitter source in [0,1), injectable and seedable like
	// Sleep; defaults to math/rand.Float64.
	Rand func() float64
}

// FollowerStats is a point-in-time snapshot of follower progress
// counters. Safe to read concurrently with the consuming goroutine.
type FollowerStats struct {
	// Lines counts well-formed entries delivered.
	Lines uint64
	// Bytes counts raw bytes consumed from the log.
	Bytes uint64
	// Skipped counts malformed (or over-long) lines dropped under the
	// Skip policy.
	Skipped uint64
	// Rotations counts reopens onto a fresh file at the same path.
	Rotations uint64
	// Truncations counts in-place truncations handled by rewinding.
	Truncations uint64
	// Polls counts end-of-file waits.
	Polls uint64
	// ReadErrors counts transient read failures retried with backoff.
	ReadErrors uint64
}

// Follower tails a log file as a continuous logfmt entry source. It is
// single-consumer: NextInto must be called from one goroutine; Stop and
// Stats may be called from any.
type Follower struct {
	cfg    FollowerConfig
	file   *os.File
	fi     os.FileInfo // identity of the open file, for rotation checks
	offset int64       // read offset in the open file

	pending   []byte // unconsumed bytes read from the file
	parsePos  int    // start of the first unparsed byte in pending
	chunk     []byte // reused read buffer
	discard   bool   // inside an over-long line, dropping until newline
	readFails int    // consecutive failed reads, drives the retry backoff
	intern    *logfmt.Interner
	err       error

	stopped atomic.Bool

	lines       atomic.Uint64
	bytes       atomic.Uint64
	skipped     atomic.Uint64
	rotations   atomic.Uint64
	truncations atomic.Uint64
	polls       atomic.Uint64
	readErrors  atomic.Uint64
}

// NewFollower validates cfg and opens the follower. A missing file is not
// an error — the follower starts polling for it, matching `tail -F`.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("stream: follower needs a path")
	}
	if cfg.Policy == 0 {
		cfg.Policy = logfmt.Skip
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = 1 << 20
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.MaxReadBackoff <= 0 {
		cfg.MaxReadBackoff = 5 * time.Second
	}
	switch {
	case cfg.Jitter == 0:
		cfg.Jitter = 0.2
	case cfg.Jitter < 0:
		cfg.Jitter = 0
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	f := &Follower{
		cfg:     cfg,
		pending: make([]byte, 0, 64*1024),
		intern:  logfmt.NewInterner(1 << 16),
	}
	f.openCurrent() // best effort; a missing file is polled for
	return f, nil
}

// openCurrent (re)opens the path and records the file identity. Returns
// false when the file does not exist yet.
func (f *Follower) openCurrent() bool {
	file, err := os.Open(f.cfg.Path)
	if err != nil {
		return false
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return false
	}
	if f.file != nil {
		f.file.Close()
	}
	f.file, f.fi, f.offset = file, fi, 0
	return true
}

// Stop asks the follower to finish: NextInto drains the complete lines
// already buffered, then returns io.EOF instead of waiting for more.
// Safe to call from any goroutine (a signal handler, a test).
func (f *Follower) Stop() { f.stopped.Store(true) }

// Stats returns a snapshot of the progress counters.
func (f *Follower) Stats() FollowerStats {
	return FollowerStats{
		Lines:       f.lines.Load(),
		Bytes:       f.bytes.Load(),
		Skipped:     f.skipped.Load(),
		Rotations:   f.rotations.Load(),
		Truncations: f.truncations.Load(),
		Polls:       f.polls.Load(),
		ReadErrors:  f.readErrors.Load(),
	}
}

// Next returns the next entry; see NextInto.
func (f *Follower) Next() (logfmt.Entry, error) {
	var e logfmt.Entry
	if err := f.NextInto(&e); err != nil {
		return logfmt.Entry{}, err
	}
	return e, nil
}

// NextInto decodes the next well-formed entry into *e, blocking (by
// polling) until one is available. It returns io.EOF after Stop once the
// buffered complete lines are drained, or the first parse error under the
// Strict policy. Like logfmt.Reader.NextInto it allocates in steady state
// only a chunk per 4 KiB of request text or of new addresses and agents:
// the line buffer is reused and string fields take their storage from a
// logfmt.Interner.
func (f *Follower) NextInto(e *logfmt.Entry) error {
	if f.err != nil {
		return f.err
	}
	for {
		// Drain complete lines already in the buffer.
		for {
			line, ok := f.nextLine()
			if !ok {
				break
			}
			if len(line) == 0 {
				continue
			}
			err := logfmt.ParseCombinedBytes(line, e, f.intern)
			if err == nil {
				f.lines.Add(1)
				return nil
			}
			if f.cfg.Policy == logfmt.Strict {
				f.err = fmt.Errorf("stream: %s: %w", f.cfg.Path, err)
				return f.err
			}
			f.skipped.Add(1)
		}
		if err := f.fill(); err != nil {
			f.err = err
			return err
		}
	}
}

// nextLine extracts the next newline-terminated line from pending,
// compacting the buffer when it has been fully consumed. Over-long lines
// are discarded in bounded space: the buffer never grows past
// MaxLineBytes plus one read chunk.
func (f *Follower) nextLine() ([]byte, bool) {
	for {
		buf := f.pending[f.parsePos:]
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			// No complete line. Compact, then enforce the length bound on
			// the partial remainder.
			if f.parsePos > 0 {
				n := copy(f.pending, f.pending[f.parsePos:])
				f.pending = f.pending[:n]
				f.parsePos = 0
			}
			if len(f.pending) > f.cfg.MaxLineBytes {
				// The partial line is already over budget: drop what we
				// have and keep dropping until its newline arrives.
				f.pending = f.pending[:0]
				f.discard = true
			}
			return nil, false
		}
		line := buf[:nl]
		f.parsePos += nl + 1
		if f.discard {
			// This newline terminates the over-long line we were
			// discarding; count it once and resume normal parsing.
			f.discard = false
			f.skipped.Add(1)
			continue
		}
		if len(line) > f.cfg.MaxLineBytes {
			f.skipped.Add(1)
			continue
		}
		return line, true
	}
}

// fill reads more bytes from the file, handling end-of-file by checking
// for rotation or truncation and otherwise polling. It returns io.EOF
// only after Stop.
func (f *Follower) fill() error {
	if f.chunk == nil {
		f.chunk = make([]byte, 64*1024)
	}
	for {
		if f.file != nil {
			n, err := f.file.ReadAt(f.chunk, f.offset)
			if err == nil || errors.Is(err, io.EOF) {
				err = fiRead.Fire()
				if err != nil {
					n = 0 // an injected failure delivers no bytes
				}
			}
			if n > 0 {
				f.readFails = 0
				f.offset += int64(n)
				f.bytes.Add(uint64(n))
				f.pending = append(f.pending, f.chunk[:n]...)
				return nil
			}
			if err != nil && !errors.Is(err, io.EOF) {
				// Transient read failure: back off and retry rather
				// than dying — a tail that exits on the first EIO
				// defeats the point of following. Only a Stop makes
				// the error terminal, so shutdown never spins here.
				f.readErrors.Add(1)
				if f.stopped.Load() {
					return fmt.Errorf("stream: read %s: %w", f.cfg.Path, err)
				}
				f.cfg.Sleep(f.readBackoff())
				continue
			}
			f.readFails = 0
			// At end of the open file: has the path been rotated away or
			// the file truncated in place?
			switch f.checkRotation() {
			case rotated:
				// The old file is fully drained (we are at its EOF); a
				// partial last line can never complete, so drop it rather
				// than glue it to the new file's first line.
				if len(f.pending) > f.parsePos {
					f.skipped.Add(1)
				}
				f.pending, f.parsePos, f.discard = f.pending[:0], 0, false
				f.rotations.Add(1)
				f.openCurrent()
				continue
			case truncated:
				f.truncations.Add(1)
				f.offset = 0
				f.pending, f.parsePos, f.discard = f.pending[:0], 0, false
				continue
			}
		} else if f.openCurrent() {
			continue
		}
		if f.stopped.Load() {
			return io.EOF
		}
		f.polls.Add(1)
		f.cfg.Sleep(f.cfg.PollInterval)
	}
}

// readBackoff returns the pause before the next read retry: the poll
// interval doubled per consecutive failure, capped at MaxReadBackoff,
// then spread by the configured jitter. The doubling runs on the
// un-jittered base, so the cap holds across any jitter sequence.
func (f *Follower) readBackoff() time.Duration {
	d := f.cfg.PollInterval
	for i := 0; i < f.readFails && d < f.cfg.MaxReadBackoff; i++ {
		d *= 2
	}
	if d > f.cfg.MaxReadBackoff {
		d = f.cfg.MaxReadBackoff
	}
	f.readFails++
	if j := f.cfg.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 - j + 2*j*f.cfg.Rand()))
	}
	return d
}

// rotationState classifies what happened to the path while we were at
// end-of-file.
type rotationState int

const (
	unchanged rotationState = iota
	rotated
	truncated
)

// checkRotation compares the path's current identity and size against the
// open file.
func (f *Follower) checkRotation() rotationState {
	fi, err := os.Stat(f.cfg.Path)
	if err != nil {
		// The path is gone (mid-rotation); treat as rotation once a new
		// file appears. Until then, keep polling the old handle — the
		// writer may still be appending to it.
		return unchanged
	}
	if !os.SameFile(fi, f.fi) {
		return rotated
	}
	if fi.Size() < f.offset {
		return truncated
	}
	return unchanged
}

// Close releases the underlying file handle. The follower is unusable
// afterwards.
func (f *Follower) Close() error {
	if f.file != nil {
		err := f.file.Close()
		f.file = nil
		return err
	}
	return nil
}
