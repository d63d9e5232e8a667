package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"divscrape/httpguard"
	"divscrape/internal/mitigate"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
	"divscrape/internal/workload"
)

// guardConns is the number of keep-alive connections (and in-process
// goroutines) driving the guard: one per core of the reference host.
const guardConns = 2

// proxyAddr is the peer address the guard trusts to assert the client in
// X-Forwarded-For — the loopback address the generator connects from.
const proxyAddr = "127.0.0.1"

// appBody is the application's fixed 1 KiB response.
var appBody = bytes.Repeat([]byte("divscrape "), 103)[:1024]

// appHandler is the application behind the guard. Content type and
// length are set so net/http neither sniffs nor chunks.
func appHandler() http.Handler {
	length := strconv.Itoa(len(appBody))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h["Content-Type"] = []string{"text/html; charset=utf-8"}
		h["Content-Length"] = []string{length}
		w.Write(appBody)
	})
}

// eventClock is the guard's clock: event time, advanced monotonically by
// whoever dispatches the next request.
type eventClock struct{ ns atomic.Int64 }

func (c *eventClock) advance(t time.Time) {
	n := t.UnixNano()
	for {
		cur := c.ns.Load()
		if n <= cur || c.ns.CompareAndSwap(cur, n) {
			return
		}
	}
}

func (c *eventClock) now() time.Time { return time.Unix(0, c.ns.Load()).UTC() }

// guardSystem is one freshly built guard wrapping the application.
type guardSystem struct {
	guard   *httpguard.Guard
	clock   *eventClock
	handler http.Handler
}

// buildGuard constructs the guard as a deployment behind a local proxy
// would: graduated ladder, all three detectors, tarpit stalls stubbed so
// the decision is timed, not the stall it imposes.
// wrapped false serves the bare application (the baseline the guard's
// added latency is read against); traced arms the provenance plane.
func buildGuard(wrapped, traced bool) (*guardSystem, error) {
	s := &guardSystem{clock: &eventClock{}}
	policy := mitigate.Graduated()
	cfg := httpguard.Config{
		Policy:           &policy,
		EnableTrajectory: true,
		TrustedProxies:   []string{proxyAddr},
		Shards:           guardConns,
		Now:              s.clock.now,
		Sleep:            func(time.Duration) {},
	}
	if traced {
		cfg.Trace = &trace.RecorderConfig{}
	}
	var err error
	if s.guard, err = httpguard.New(cfg); err != nil {
		return nil, err
	}
	s.handler = appHandler()
	if wrapped {
		s.handler = s.guard.Wrap(s.handler)
	}
	return s, nil
}

func (s *guardSystem) snapshot(w *statecodec.Writer) error {
	s.guard.SnapshotInto(w)
	return w.Err()
}

func (s *guardSystem) restore(r *statecodec.Reader) error { return s.guard.RestoreFrom(r) }

// outcome reads the guard's counters after a pass of n requests.
func (s *guardSystem) outcome(failed uint64) *outcome {
	return &outcome{actions: s.guard.StatsDetail().Actions, failed: failed}
}

// checkActions holds a pass's ladder tally within 1% of n of the
// in-process sequential pass: two connections may swap neighbouring
// requests, nothing more.
func checkActions(got, want mitigate.ActionCounts, n int, what string) error {
	if got.Total() != uint64(n) {
		return fmt.Errorf("%s: guard judged %d of %d requests", what, got.Total(), n)
	}
	tol := uint64(n / 100)
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"allow", got.Allowed, want.Allowed},
		{"tarpit", got.Tarpitted, want.Tarpitted},
		{"challenge", got.Challenged, want.Challenged},
		{"block", got.Blocked, want.Blocked},
	} {
		d := c.got - c.want
		if c.want > c.got {
			d = c.want - c.got
		}
		if d > tol {
			return fmt.Errorf("%s: %s count %d differs from the sequential pass's %d by more than %d", what, c.name, c.got, c.want, tol)
		}
	}
	return nil
}

// inprocDriver replays events straight into a handler on the caller's
// goroutine, reusing one request and a writer that discards.
type inprocDriver struct {
	req  http.Request
	w    nopWriter
	urls map[string]*url.URL
}

func newInprocDriver(urls map[string]*url.URL) *inprocDriver {
	d := &inprocDriver{urls: urls}
	d.req = http.Request{
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Host:       "bench",
		RemoteAddr: proxyAddr + ":40000",
		Header: http.Header{
			"User-Agent":      {""},
			"Referer":         {""},
			"X-Forwarded-For": {""},
		},
	}
	d.w.header = make(http.Header)
	return d
}

func (d *inprocDriver) serve(h http.Handler, ev *workload.Event) int {
	e := &ev.Entry
	d.req.Method = e.Method
	d.req.URL = d.urls[e.Path]
	d.req.Header["User-Agent"][0] = e.UserAgent
	d.req.Header["Referer"][0] = e.Referer
	d.req.Header["X-Forwarded-For"][0] = e.RemoteAddr
	d.w.reset()
	h.ServeHTTP(&d.w, &d.req)
	return d.w.status
}

type nopWriter struct {
	header http.Header
	status int
}

func (w *nopWriter) Header() http.Header         { return w.header }
func (w *nopWriter) WriteHeader(code int)        { w.status = code }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) reset() {
	w.status = http.StatusOK
	for k := range w.header {
		delete(w.header, k)
	}
}

// parseURLs parses every distinct request target once.
func parseURLs(events []workload.Event) (map[string]*url.URL, error) {
	urls := make(map[string]*url.URL)
	for i := range events {
		p := events[i].Entry.Path
		if _, ok := urls[p]; ok {
			continue
		}
		u, err := url.ParseRequestURI(p)
		if err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		urls[p] = u
	}
	return urls, nil
}

// serveInproc replays the whole list through the system's handler from
// workers goroutines, each claiming the next event and advancing the
// clock to it.
func (s *guardSystem) serveInproc(events []workload.Event, urls map[string]*url.URL, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := newInprocDriver(urls)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(events) {
					return
				}
				s.clock.advance(events[i].Entry.Time)
				d.serve(s.handler, &events[i])
			}
		}()
	}
	wg.Wait()
}

// server is a real net/http server on loopback.
type server struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", proxyAddr+":0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop ends the server once its clients have hung up. Shutdown returns
// when the last connection's goroutine has let go of the handler, which
// the held-heap readings that follow depend on; Close is the fallback
// for a connection that never went idle.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// rawConn is one keep-alive HTTP/1.1 connection of the load generator.
// It writes requests by hand and reads just enough of the response to
// find its end, so the generator's share of the two cores stays small
// beside the server's.
type rawConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, br: bufio.NewReaderSize(c, 8<<10), buf: make([]byte, 0, 2<<10)}, nil
}

func (rc *rawConn) close() { rc.c.Close() }

// do sends ev as an HTTP request and returns the response status.
func (rc *rawConn) do(ev *workload.Event) (int, error) {
	if err := rc.send(ev); err != nil {
		return 0, err
	}
	return rc.readResponse()
}

// send writes ev as an HTTP request without waiting for the answer.
func (rc *rawConn) send(ev *workload.Event) error {
	e := &ev.Entry
	b := rc.buf[:0]
	b = append(b, e.Method...)
	b = append(b, ' ')
	b = append(b, e.Path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\nUser-Agent: "...)
	b = append(b, e.UserAgent...)
	if e.Referer != "" && e.Referer != "-" {
		b = append(b, "\r\nReferer: "...)
		b = append(b, e.Referer...)
	}
	b = append(b, "\r\nX-Forwarded-For: "...)
	b = append(b, e.RemoteAddr...)
	if e.Method == http.MethodPost {
		b = append(b, "\r\nContent-Length: 0"...)
	}
	b = append(b, "\r\n\r\n"...)
	rc.buf = b
	_, err := rc.c.Write(b)
	return err
}

// get fetches path, returning the status and body length.
func (rc *rawConn) get(path string) (int, error) {
	b := append(rc.buf[:0], "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	rc.buf = b
	if _, err := rc.c.Write(b); err != nil {
		return 0, err
	}
	return rc.readResponse()
}

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
)

func (rc *rawConn) readResponse() (int, error) {
	line, err := rc.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, fmt.Errorf("short status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("status line %q: %w", line, err)
	}
	length, chunked := -1, false
	for {
		line, err = rc.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if len(line) > len(hdrContentLength) && bytes.EqualFold(line[:len(hdrContentLength)], hdrContentLength) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(hdrContentLength):])))
			if err != nil {
				return 0, fmt.Errorf("content-length %q: %w", line, err)
			}
		} else if bytes.EqualFold(bytes.TrimSpace(line), hdrChunked) {
			chunked = true
		}
	}
	switch {
	case chunked:
		for {
			line, err = rc.br.ReadSlice('\n')
			if err != nil {
				return 0, err
			}
			n, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, fmt.Errorf("chunk size %q: %w", line, err)
			}
			if _, err := rc.br.Discard(int(n) + 2); err != nil {
				return 0, err
			}
			if n == 0 {
				break
			}
		}
	case length > 0:
		if _, err := rc.br.Discard(length); err != nil {
			return 0, err
		}
	case length < 0 && status != http.StatusNoContent && status != http.StatusNotModified:
		return 0, errors.New("response without a length")
	}
	return status, nil
}

// closedLoop replays the whole list over guardConns keep-alive
// connections, each sending its next request only when the previous
// answer has arrived. It returns how many requests got no usable answer
// and how many were answered 503.
func closedLoop(addr string, clock *eventClock, events []workload.Event) (failed, unavailable uint64, err error) {
	conns := make([]*rawConn, guardConns)
	for i := range conns {
		c, err := dialRaw(addr)
		if err != nil {
			return 0, 0, err
		}
		defer c.close()
		conns[i] = c
	}
	var next atomic.Int64
	var nFailed, nUnavailable atomic.Uint64
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *rawConn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(events) {
					return
				}
				clock.advance(events[i].Entry.Time)
				status, err := c.do(&events[i])
				switch {
				case err != nil:
					// The connection's framing is lost; count what it
					// would still have carried as failed too.
					nFailed.Add(1)
					return
				case status == http.StatusServiceUnavailable:
					nUnavailable.Add(1)
				case status >= 500:
					nFailed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if int(next.Load()) < len(events) {
		return 0, 0, fmt.Errorf("every connection failed after %d of %d requests", next.Load(), len(events))
	}
	return nFailed.Load(), nUnavailable.Load(), nil
}

// waitUntil spins until due. Sleeping is no substitute: a parked
// goroutine on this class of host wakes hundreds of microseconds late,
// which would be most of what an open loop at these rates measures. With
// a single processor there is nothing to spin beside, so it sleeps.
func waitUntil(due time.Time) {
	if runtime.GOMAXPROCS(0) < 2 {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		return
	}
	for time.Now().Before(due) {
	}
}

// openLoop offers events at rate requests per second over guardConns
// keep-alive connections: request i is due at start + i/rate whatever
// became of its predecessors, and goes out on connection i mod
// guardConns, pipelined behind any answer still outstanding there. The
// caller's goroutine is the dispatcher; one reader per connection takes
// the answers, which arrive in the order sent, and times each from its
// request's due time — so a stall is charged to every request it delays.
// It returns latencies and the dispatcher's own lateness (due time to
// send), both in microseconds.
func openLoop(addr string, clock *eventClock, events []workload.Event, rate float64) (lat, late []float64, failed uint64, err error) {
	conns := make([]*rawConn, guardConns)
	for i := range conns {
		c, err := dialRaw(addr)
		if err != nil {
			return nil, nil, 0, err
		}
		defer c.close()
		conns[i] = c
	}
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	dueOf := func(i int) time.Time { return start.Add(time.Duration(float64(i) * interval)) }

	lats := make([][]float64, len(conns))
	var nFailed atomic.Uint64
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *rawConn) {
			defer wg.Done()
			for i := k; i < len(events); i += len(conns) {
				status, err := c.readResponse()
				if err != nil {
					nFailed.Add(uint64((len(events) - i + len(conns) - 1) / len(conns)))
					return
				}
				if status >= 500 && status != http.StatusServiceUnavailable {
					nFailed.Add(1)
				}
				lats[k] = append(lats[k], float64(time.Since(dueOf(i)).Nanoseconds())/1e3)
			}
		}(k, c)
	}
	late = make([]float64, 0, len(events))
	for i := range events {
		due := dueOf(i)
		waitUntil(due)
		late = append(late, float64(time.Since(due).Nanoseconds())/1e3)
		clock.advance(events[i].Entry.Time)
		if err := conns[i%len(conns)].send(&events[i]); err != nil {
			// The reader of this connection sees the same failure and
			// accounts for what it still expected.
			break
		}
	}
	wg.Wait()
	for k := range conns {
		lat = append(lat, lats[k]...)
	}
	return lat, late, nFailed.Load(), nil
}
