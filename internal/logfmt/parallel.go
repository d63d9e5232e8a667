package logfmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
)

// ParallelReader decodes Combined Log Format with the parse stage fanned
// out across worker goroutines: a splitter carves the input into chunks
// on newline boundaries, workers parse chunks independently (each with a
// private Interner, so the zero-alloc fast path needs no locks), and the
// consumer reassembles the results in chunk-sequence order. The entry
// stream NextInto yields is therefore byte-identical to Reader's over the
// same input — including malformed-line handling, CR stripping, global
// line numbers in Strict errors, and the Skipped/Lines counters — only
// the wall-clock cost differs. Equivalence across worker counts and chunk
// sizes is pinned by TestParallelReaderEquivalence.
//
// ParallelReader is the ingest-side counterpart of the pipeline's
// ShardedRelaxed mode: once detection stops serialising on a merge, a
// single-goroutine parser becomes the next wall, and parsing is the one
// stage with no cross-request state at all — chunks only have to be cut
// on line boundaries and re-sequenced.
//
// The consumer side (NextInto/Next) must be driven by one goroutine.
// Memory is bounded: at most a handful of chunks (splitter + workers +
// reorder margin) are in flight, and chunk buffers and entry slabs
// recycle through pools.
type ParallelReader struct {
	policy   ErrPolicy
	chunkSz  int
	maxLine  int
	nworkers int

	work    chan rawChunk
	results chan parsedChunk
	stop    chan struct{}
	stopped sync.Once

	bufPool   sync.Pool // *[]byte, cap ≥ chunkSz
	entryPool sync.Pool // *[]Entry

	// Consumer state.
	pending map[int]parsedChunk
	cur     parsedChunk
	curIdx  int
	haveCur bool
	nextSeq int
	lineNo  int
	skipped int
	err     error

	// readErr is the splitter's terminal read error (nil for clean EOF);
	// written before the work channel closes, read by the consumer only
	// after the results channel closes, so the channel closures order the
	// accesses.
	readErr error
}

// ParallelConfig parameterises NewParallelReader.
type ParallelConfig struct {
	// Policy selects the malformed-line behaviour. Defaults to Strict,
	// matching Reader.
	Policy ErrPolicy
	// Workers is the parse goroutine count. Defaults to GOMAXPROCS.
	Workers int
	// ChunkBytes is the target chunk size handed to each worker. Larger
	// chunks amortise hand-off overhead; smaller ones bound reorder
	// latency. Defaults to 256 KiB.
	ChunkBytes int
	// MaxLineBytes bounds a single line, like ReaderConfig.MaxLineBytes;
	// input containing a longer line fails with bufio.ErrTooLong.
	// Defaults to 1 MiB.
	MaxLineBytes int
}

// rawChunk is the splitter→worker unit: data always ends on a line
// boundary (or the end of input) and never splits a line.
type rawChunk struct {
	seq       int
	data      []byte
	buf       *[]byte // backing buffer, recycled by the worker
	startLine int     // 1-based global line number of data's first line
	lines     int     // lines in data, the most entries it can yield
}

// parsedChunk is the worker→consumer unit.
type parsedChunk struct {
	seq     int
	entries *[]Entry
	lines   int // lines consumed (all of them, or up to a Strict error)
	skipped int
	err     error // Strict parse error, already carrying the line number
}

// NewParallelReader starts the split/parse goroutines over r. The caller
// must drain to io.EOF (or a terminal error) or call Close, either of
// which releases the goroutines.
func NewParallelReader(r io.Reader, cfg ParallelConfig) *ParallelReader {
	if cfg.Policy == 0 {
		cfg.Policy = Strict
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 256 * 1024
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = 1 << 20
	}
	pr := &ParallelReader{
		policy:   cfg.Policy,
		chunkSz:  cfg.ChunkBytes,
		maxLine:  cfg.MaxLineBytes,
		nworkers: cfg.Workers,
		work:     make(chan rawChunk, cfg.Workers),
		results:  make(chan parsedChunk, 2*cfg.Workers),
		stop:     make(chan struct{}),
		pending:  make(map[int]parsedChunk, 2*cfg.Workers),
	}
	sz := cfg.ChunkBytes
	pr.bufPool.New = func() any {
		b := make([]byte, 0, sz)
		return &b
	}
	pr.entryPool.New = func() any { return new([]Entry) } // the worker sizes it

	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(pr.results)
	}()
	go pr.split(r)
	return pr
}

// split carves the input into newline-aligned chunks. It owns the carry
// of the trailing partial line between reads.
func (pr *ParallelReader) split(r io.Reader) {
	defer close(pr.work)
	var carry []byte
	seq := 0
	line := 1
	var rerr error
	for rerr == nil {
		bp := pr.bufPool.Get().(*[]byte)
		b := append((*bp)[:0], carry...)
		carry = carry[:0]
		// Fill to at least one target chunk containing a newline; a line
		// longer than the bound is the same terminal error the buffered
		// scanner reports.
		target := pr.chunkSz
		for {
			for len(b) < target && rerr == nil {
				if len(b) == cap(b) {
					b = append(b, 0)[:len(b)]
				}
				var n int
				n, rerr = r.Read(b[len(b):cap(b)])
				b = b[:len(b)+n]
			}
			if bytes.IndexByte(b, '\n') >= 0 || rerr != nil {
				break
			}
			if len(b) > pr.maxLine {
				rerr = bufio.ErrTooLong
				b = b[:0]
				break
			}
			target = len(b) + pr.chunkSz
		}
		// On any terminal read condition (EOF or a mid-stream failure) the
		// whole buffer ships, partial final line included — the buffered
		// scanner likewise drains its buffer before surfacing the error.
		data := b
		if rerr == nil {
			cut := bytes.LastIndexByte(b, '\n') + 1 // > 0: loop above guarantees one
			data = b[:cut]
			if len(b)-cut > pr.maxLine {
				rerr = bufio.ErrTooLong
			}
			carry = append(carry, b[cut:]...)
		}
		if len(data) == 0 {
			*bp = b[:0]
			pr.bufPool.Put(bp)
			continue
		}
		*bp = b
		lines := bytes.Count(data, nl)
		if data[len(data)-1] != '\n' {
			lines++ // final unterminated line
		}
		rc := rawChunk{seq: seq, data: data, buf: bp, startLine: line, lines: lines}
		select {
		case pr.work <- rc:
		case <-pr.stop:
			return
		}
		seq++
		line += lines
	}
	if rerr != io.EOF {
		pr.readErr = rerr
	}
}

var nl = []byte{'\n'}

func (pr *ParallelReader) worker() {
	in := NewInterner(1 << 16)
	for rc := range pr.work {
		select {
		case <-pr.stop:
			*rc.buf = (*rc.buf)[:0]
			pr.bufPool.Put(rc.buf)
			continue // keep draining so the splitter never blocks forever
		default:
		}
		pc := parsedChunk{seq: rc.seq}
		esp := pr.entryPool.Get().(*[]Entry)
		// Sized for the chunk at once: a new slab is one allocation, not
		// a doubling ladder from the pool's 64.
		entries := slices.Grow((*esp)[:0], rc.lines)
		lineNo := rc.startLine
		data := rc.data
		for len(data) > 0 {
			var ln []byte
			if i := bytes.IndexByte(data, '\n'); i >= 0 {
				ln, data = data[:i], data[i+1:]
			} else {
				ln, data = data, nil
			}
			if n := len(ln); n > 0 && ln[n-1] == '\r' {
				ln = ln[:n-1] // ScanLines parity: CRLF terminators
			}
			if len(ln) == 0 {
				lineNo++
				continue
			}
			entries = append(entries, Entry{})
			if err := ParseCombinedBytes(ln, &entries[len(entries)-1], in); err != nil {
				entries = entries[:len(entries)-1]
				if pr.policy == Strict {
					pc.err = fmt.Errorf("line %d: %w", lineNo, err)
					lineNo++
					break
				}
				pc.skipped++
			}
			lineNo++
		}
		pc.lines = lineNo - rc.startLine
		*esp = entries
		pc.entries = esp
		*rc.buf = (*rc.buf)[:0]
		pr.bufPool.Put(rc.buf)
		select {
		case pr.results <- pc:
		case <-pr.stop:
			pr.entryPool.Put(esp)
		}
	}
}

// NextInto decodes the next well-formed entry into *e, in the exact
// order Reader would have produced. It returns io.EOF at end of input, a
// *ParseError wrapped with its line position under the Strict policy, or
// the underlying read error. Terminal errors are sticky and release the
// reader's goroutines; the contents of *e are unspecified on error.
func (pr *ParallelReader) NextInto(e *Entry) error {
	if pr.err != nil {
		return pr.err
	}
	for {
		if pr.haveCur {
			if pr.curIdx < len(*pr.cur.entries) {
				*e = (*pr.cur.entries)[pr.curIdx]
				pr.curIdx++
				return nil
			}
			// Chunk exhausted: settle its accounting, surface a Strict
			// error positioned after the entries that preceded it.
			pr.lineNo += pr.cur.lines
			pr.skipped += pr.cur.skipped
			err := pr.cur.err
			pr.entryPool.Put(pr.cur.entries)
			pr.haveCur = false
			pr.nextSeq++
			if err != nil {
				return pr.fail(err)
			}
		}
		if pc, ok := pr.pending[pr.nextSeq]; ok {
			delete(pr.pending, pr.nextSeq)
			pr.cur, pr.curIdx, pr.haveCur = pc, 0, true
			continue
		}
		pc, ok := <-pr.results
		if !ok {
			if pr.readErr != nil {
				return pr.fail(pr.readErr)
			}
			return pr.fail(io.EOF)
		}
		pr.pending[pc.seq] = pc
	}
}

// Next returns the next well-formed entry; see NextInto.
func (pr *ParallelReader) Next() (Entry, error) {
	var e Entry
	if err := pr.NextInto(&e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// Skipped reports how many malformed lines were dropped under the Skip
// policy, across all entries delivered so far.
func (pr *ParallelReader) Skipped() int { return pr.skipped }

// Lines reports how many input lines back the entries delivered so far.
func (pr *ParallelReader) Lines() int { return pr.lineNo }

// Close releases the reader's goroutines without draining the input.
// Safe to call at any point (including after EOF, where it is a no-op);
// subsequent NextInto calls report the terminal state.
func (pr *ParallelReader) Close() error {
	pr.fail(io.EOF)
	return nil
}

// fail records the terminal error and shuts the goroutines down: the
// stop channel unblocks the splitter and workers, and draining results
// lets them all exit. Returns the error for tail-call convenience.
func (pr *ParallelReader) fail(err error) error {
	if pr.err == nil {
		pr.err = err
	}
	pr.stopped.Do(func() {
		close(pr.stop)
		go func() {
			for range pr.results {
			}
		}()
	})
	return pr.err
}
