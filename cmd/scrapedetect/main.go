// Command scrapedetect replays an Apache access log (Combined Log Format)
// through both detectors and reports alert totals and the diversity
// contingency table; with a label sidecar it also reports per-tool
// sensitivity and specificity. With -follow it runs as a live service
// instead, tailing an actively written (and rotated) log with bounded
// memory.
//
// Usage:
//
//	scrapedetect -log access.log [-detectors sentinel,arcane,trajectory] [-labels labels.csv] [-parallel N] [-mode seq|shard] [-parse-workers N] [-out verdicts.csv] [-mitigate observe|tag|block|graduated] [-save-state f] [-load-state f] [-cpuprofile cpu.out] [-memprofile mem.out]
//	scrapedetect -follow -log access.log [-metrics-addr :9090] [-window 2h] [-checkpoint state.bin -checkpoint-every 100000] [-mitigate graduated]
//
// -detectors picks which detectors judge the stream (default the paper's
// pair, sentinel and arcane; add trajectory for the semantic navigation
// channel). Every downstream surface — the diversity table, labelled
// metrics, verdict CSV, live alert counters, mitigation quorum and trace
// records — follows the selected set.
//
// By default the log is partitioned by client IP across GOMAXPROCS worker
// shards (-parallel, or -mode shard); pass -parallel 0 (or 1, or -mode
// seq) for the single-threaded reference pipeline. Both judge every
// request identically, and both host every flag. How the sharded pipeline
// delivers its decisions follows from what was asked of it: -out and
// -trace-out each write one in-order file, so with either the decisions
// are restored to stream order and those files are byte-identical to the
// sequential run's; without them every shard counts into its own partial
// tables, merged at the end — per-client order is all that is kept, which
// is all the ladder, a checkpoint and the -explain client need, and every
// summary table is an order-free count, so they match exactly too.
// -parse-workers additionally fans the replay's log parsing across
// goroutines (chunked on newline boundaries, order preserved) — useful
// on multi-core hosts where ingest, not detection, is the wall.
//
// -mitigate gives every shard a response engine and reports what each
// policy *would have done* to the recorded traffic — a what-if: the logged
// clients never saw the enforcement, so they do not react to it.
//
// -save-state checkpoints every per-client detection history (and the
// -mitigate engine's ladder state) after the replay; -load-state restores
// one before it. Splitting a log at any line and replaying the halves in
// two processes with a checkpoint between them produces verdict streams
// identical to one uninterrupted run — rotated daily logs can be analysed
// day by day without losing multi-day session memory. The state file is
// topology-independent: it can be saved from a sequential run and loaded
// into a sharded one, or vice versa.
//
// # Live operation
//
// -follow turns the replay into a long-running service: the log is
// tailed through rotation and truncation, ingestion is backpressure-aware
// (the pipeline pulls, the file buffers), and the pipeline defaults to
// sequential — a live tail is latency-bound, not throughput-bound (pass
// -parallel N explicitly to opt in). Windowed eviction (-window, default
// two hours) bounds every stateful layer — detector session stores and
// the -mitigate ladders, swept shard by shard on event time — so
// steady-state memory is O(clients active in the window) over days of
// uptime. -metrics-addr serves /debug/divscrape/metrics (Prometheus
// text; ?format=json for JSON) and /debug/divscrape/state.
// -checkpoint/-checkpoint-every persist the full detection state
// periodically through the durable state plane (the stream is cut at the
// source, so either pipeline drains to idle first), so a restarted
// follower resumes with its session memory intact (-load-state the
// checkpoint).
// SIGINT/SIGTERM stop the tail, drain buffered lines, write a final
// checkpoint and print the summary tables.
//
// A detector that panics does not stop either mode: its shard quarantines
// it, the other detectors go on judging, and it is rebuilt cold once a
// backoff of event time has passed. -follow keeps serving and reports the
// quarantined detector on the health document and the divscrape_degraded
// gauge; either mode, once its report and state files are written, exits
// non-zero naming every detector that panicked, the shard and the request.
//
// # Tracing and provenance
//
// -trace records per-stage latency histograms (parse, enrich, per-detector
// detect, ensemble, sink — plus per-shard ring occupancy in shard mode,
// and merge when its delivery is ordered) into the metrics registry and
// samples decisions into a bounded flight recorder served at
// /debug/divscrape/trace and /debug/divscrape/explain. -trace-out writes
// every captured record as JSON lines to a file (an audit stream, in
// stream order; it defaults to the sequential pipeline, the one that can
// also put feature vectors in it); -explain CLIENT always captures one
// client and prints its provenance timeline — per-detector verdicts,
// feature vectors, mitigation rung transitions — after the replay, the
// same in either mode. Both imply -trace. -pprof additionally serves
// net/http/pprof under /debug/pprof/ on -metrics-addr;
// -block-profile-rate and -mutex-profile-fraction arm the corresponding
// runtime profiles for it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"divscrape"
	"divscrape/internal/alertlog"
	"divscrape/internal/checkpoint"
	"divscrape/internal/detector"
	"divscrape/internal/diversity"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/report"
	"divscrape/internal/shard"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/trace"
	"divscrape/internal/workload"
)

// buildDetectors resolves the -detectors list through the facade's
// registry into live detectors plus the factories the sharded pipeline
// clones per-shard state from. (The trajectory factory hands every shard
// the same trained model — the model is immutable after training, so
// sharing it is what keeps shard verdicts identical to the sequential
// run's.)
func buildDetectors(names []string) ([]detector.Detector, []detector.Factory, error) {
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("-detectors must name at least one detector")
	}
	facts, err := divscrape.FactoriesFor(names...)
	if err != nil {
		return nil, nil, err
	}
	dets, err := detector.Build(facts)
	return dets, facts, err
}

// splitDetectorNames parses the -detectors flag value.
func splitDetectorNames(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			names = append(names, part)
		}
	}
	return names
}

// tally is what one decision sink counts. Every field is a commutative
// count, so the tallies of a per-shard run merge into exactly the totals
// an ordered run counts.
type tally struct {
	// table counts every request by alert pattern and, with -labels,
	// ground truth: the diversity table and the labelled metrics read it.
	table diversity.Table
	// seen paces the watchdog polls of the sink that polls.
	seen uint64
	// tagged and passed are the mitigation table's two rows the engines do
	// not tally themselves: requests the policy tagged, beacons verified.
	tagged, passed uint64
}

func newTally(detectors int) (*tally, error) {
	table, err := diversity.NewTable(detectors)
	return &tally{table: table}, err
}

func (t *tally) merge(o *tally) {
	t.table.Merge(&o.table)
	t.tagged += o.tagged
	t.passed += o.passed
}

// modeNameOf names a pipeline mode for the summary header.
func modeNameOf(m pipeline.Mode) string {
	if m == pipeline.Sharded {
		return "shard"
	}
	return "seq"
}

// mitigationPolicy resolves the -mitigate flag.
func mitigationPolicy(name string) (mitigate.Policy, error) {
	switch name {
	case "observe":
		return mitigate.Observe(), nil
	case "tag":
		return mitigate.Tag(), nil
	case "block":
		return mitigate.StaticBlock(false), nil
	case "graduated":
		return mitigate.Graduated(), nil
	default:
		return mitigate.Policy{}, fmt.Errorf("invalid -mitigate %q (want observe, tag, block or graduated)", name)
	}
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scrapedetect:", err)
		os.Exit(1)
	}
}

// saveStateTo checkpoints the pipeline (and, when mitigating, its shards'
// ladder state, merged) through a crash-safe saver: the versioned,
// checksummed frame is written to a temp file, fsynced and atomically
// renamed over the newest generation, with the previous generations
// rotated down a slot and transient write failures retried with backoff —
// a crash or a full disk at any instant leaves every earlier generation
// intact.
func saveStateTo(s *checkpoint.Saver, pipe *pipeline.Pipeline, mitigating bool) error {
	w := statecodec.NewWriter()
	if err := pipe.Checkpoint(w); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	w.Bool(mitigating)
	if mitigating {
		pipe.SnapshotLadder(w)
	}
	return s.Save(w)
}

// loadStateFile restores a checkpoint, falling back generation by
// generation past damaged snapshots (a torn newest file after a crash
// restores from the previous generation instead of failing the boot).
// The pipeline must be configured like the saving run's (the mode and
// shard count may differ), and the presence of -mitigate must match — an
// engine's ladder state cannot be silently dropped or invented; that
// mismatch aborts the walk rather than falling back, because an older
// generation would mismatch identically.
func loadStateFile(path string, pipe *pipeline.Pipeline, mitigating bool) error {
	restore := func(r *statecodec.Reader) error {
		if err := pipe.ResumeFrom(r); err != nil {
			return err
		}
		hasEngine := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		switch {
		case hasEngine && !mitigating:
			return fmt.Errorf("file carries mitigation state; pass the same -mitigate policy it was saved with")
		case !hasEngine && mitigating:
			return fmt.Errorf("file carries no mitigation state; drop -mitigate or re-save with it")
		case hasEngine:
			return pipe.RestoreLadder(r)
		}
		return nil
	}
	gen, err := checkpoint.Load(path, restore)
	if err != nil {
		return fmt.Errorf("load state: %w", err)
	}
	if gen > 0 {
		fmt.Fprintf(os.Stderr, "scrapedetect: newest checkpoint generation damaged; restored generation %d of %s\n", gen, path)
	}
	return nil
}

// segments cuts an entry source into runs of every entries: after that
// many it reports end of stream once, so the pipeline — either engine —
// drains and returns exactly as it does at the real end, the caller saves
// a checkpoint, and the next Run continues on the same source. cut tells
// the two ends apart.
type segments struct {
	src      pipeline.EntrySource
	every, n int
	cut      bool
}

func (s *segments) next() (logfmt.Entry, error) {
	if s.n == s.every {
		s.n, s.cut = 0, true
		return logfmt.Entry{}, io.EOF
	}
	e, err := s.src()
	if err == nil {
		s.n++
	}
	return e, err
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scrapedetect", flag.ContinueOnError)
	logPath := fs.String("log", "access.log", "access log to analyse")
	detectorsFlag := fs.String("detectors", "sentinel,arcane", "comma-separated detectors to run: sentinel, arcane, trajectory")
	labelPath := fs.String("labels", "", "optional label sidecar for sensitivity/specificity")
	mode := fs.String("mode", "", "pipeline mode: seq or shard (default derived from -parallel)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker shards for shard mode; 0 or 1 runs sequentially")
	parseWorkers := fs.Int("parse-workers", 1, "parallel log-parse workers for replays (chunked on line boundaries, entry order preserved); 0 selects GOMAXPROCS, incompatible with -follow")
	outPath := fs.String("out", "", "optional per-request verdict CSV output")
	mitigateName := fs.String("mitigate", "", "replay a response policy over the decisions: observe, tag, block or graduated")
	saveState := fs.String("save-state", "", "after the replay, checkpoint all detection (and -mitigate) state to this file")
	loadState := fs.String("load-state", "", "before the replay, restore detection state from this file; the run continues as if never interrupted")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the analysis) to this file")
	follow := fs.Bool("follow", false, "tail -log as it is written (surviving rotation) instead of replaying it; stop with SIGINT/SIGTERM")
	metricsAddr := fs.String("metrics-addr", "", "serve /debug/divscrape/metrics and /debug/divscrape/state on this address")
	window := fs.Duration("window", 0, "windowed-eviction retention for per-client state; 0 selects 2h in follow mode and disables eviction in replay mode")
	evictEvery := fs.Duration("evict-every", 0, "eviction sweep cadence in event time; 0 selects window/4")
	checkpointPath := fs.String("checkpoint", "", "periodically checkpoint all detection (and -mitigate) state to this file while running")
	checkpointEvery := fs.Int("checkpoint-every", 100_000, "events between periodic checkpoints")
	checkpointRetain := fs.Int("checkpoint-retain", 3, "checkpoint generations to retain (the newest plus N-1 older fallbacks)")
	maxEvents := fs.Uint64("max-events", 0, "stop after this many events (0 = unlimited); mainly for smoke tests of follow mode")
	traceFlag := fs.Bool("trace", false, "record per-stage latency histograms and sample decisions into the flight recorder")
	traceOut := fs.String("trace-out", "", "write every captured flight record as JSON lines to this file (implies -trace)")
	explainClient := fs.String("explain", "", "always capture this client's decisions and print its provenance timeline after the run (implies -trace)")
	pprofHTTP := fs.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	clusterListen := fs.String("cluster-listen", "", "serve cluster state deltas on this address and replicate mitigation state with -cluster-peers (requires -follow and -mitigate); the exact string is also this node's identity in peers' -cluster-peers lists")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated peer -cluster-listen addresses to replicate with")
	clusterDegraded := fs.String("cluster-degraded", "fail-open", "quorum-loss behaviour: fail-open keeps enforcing on local state, fail-closed additionally freezes ladder escalation until the partition heals")
	blockRate := fs.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate argument; 0 leaves blocking profiles off")
	mutexFrac := fs.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction argument; 0 leaves mutex profiles off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tracing := *traceFlag || *traceOut != "" || *explainClient != ""
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
		defer runtime.SetBlockProfileRate(0)
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
		defer runtime.SetMutexProfileFraction(0)
	}
	if *window < 0 {
		return fmt.Errorf("invalid -window %v (want >= 0)", *window)
	}
	if *window == 0 && *follow {
		*window = 2 * time.Hour
	}
	if *checkpointPath != "" && *checkpointEvery <= 0 {
		return fmt.Errorf("invalid -checkpoint-every %d (want > 0)", *checkpointEvery)
	}
	if *checkpointRetain <= 0 {
		return fmt.Errorf("invalid -checkpoint-retain %d (want > 0)", *checkpointRetain)
	}
	clusterPol, err := degradedPolicyOf(*clusterDegraded)
	if err != nil {
		return err
	}
	if *clusterListen != "" {
		switch {
		case !*follow:
			return fmt.Errorf("-cluster-listen requires -follow (the cluster plane replicates live state)")
		case *mitigateName == "":
			return fmt.Errorf("-cluster-listen requires -mitigate (the enforcement ladder is what replicates)")
		case splitPeers(*clusterPeers, *clusterListen) == nil:
			return fmt.Errorf("-cluster-listen requires at least one peer in -cluster-peers")
		}
	}
	// Profiles cover the replay itself, so hot-path regressions can be
	// diagnosed straight from the CLI: run with -cpuprofile/-memprofile
	// and feed the output to `go tool pprof`.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("create mem profile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scrapedetect: write mem profile:", err)
			}
			f.Close()
		}()
	}
	// The policy is the pipeline's to apply: every shard runs a ladder of
	// its own for the clients that hash to it.
	var policy *mitigate.Policy
	if *mitigateName != "" {
		p, err := mitigationPolicy(*mitigateName)
		if err != nil {
			return err
		}
		policy = &p
	}
	if *parallel < 0 {
		return fmt.Errorf("invalid -parallel %d (want >= 0)", *parallel)
	}

	// -mode wins when given; otherwise -parallel picks between the
	// sequential reference and the sharded pipeline. Follow mode defaults
	// to sequential unless parallelism was explicitly requested: a live
	// tail is latency-bound, not throughput-bound, and the sequential
	// pipeline already sustains >1M req/s — far beyond any single log
	// file.
	parallelSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			parallelSet = true
		}
	})
	var pmode pipeline.Mode
	switch *mode {
	case "seq":
		pmode = pipeline.Sequential
	case "shard":
		pmode = pipeline.Sharded
	case "conc", "relaxed":
		return fmt.Errorf("-mode %s is gone; use -mode shard, which restores stream order only for the outputs that consume it (-out, -trace-out)", *mode)
	case "":
		switch {
		case *follow && !parallelSet:
			pmode = pipeline.Sequential
		case *traceOut != "" && !parallelSet:
			// The audit stream defaults to sequential: one file is one
			// in-order stream, and only the pipeline that judges in stream
			// order can also put feature vectors in it.
			pmode = pipeline.Sequential
		case *parallel > 1:
			pmode = pipeline.Sharded
		default:
			pmode = pipeline.Sequential
		}
	default:
		return fmt.Errorf("invalid -mode %q (want seq or shard)", *mode)
	}
	// The sharded pipeline delivers per shard unless something consumes
	// one in-order decision stream: the verdict CSV is written by sequence
	// into a dense table and the flight recorder's audit stream is one
	// file. Everything else — the ladder, checkpoints, the -explain
	// client's timeline, every summary table — needs per-client order at
	// most, which every shard keeps.
	perShard := pmode == pipeline.Sharded && *outPath == "" && *traceOut == ""
	if *parseWorkers < 0 {
		return fmt.Errorf("invalid -parse-workers %d (want >= 0)", *parseWorkers)
	}
	if *parseWorkers != 1 && *follow {
		return fmt.Errorf("-parse-workers applies to replays; -follow tails a live log line by line")
	}
	shards := 1
	if pmode == pipeline.Sharded {
		shards = max(*parallel, 1)
	}

	dets, factories, err := buildDetectors(splitDetectorNames(*detectorsFlag))
	if err != nil {
		return err
	}
	detNames := make([]string, len(dets))
	for i, d := range dets {
		detNames[i] = d.Name()
	}
	// The registry is created before the pipeline so the tracer's stage
	// histograms and the sink counters share one scrape page; the tracer
	// itself stays nil — the disabled plane — unless a trace mode asked
	// for it.
	reg := metrics.NewRegistry()
	var tracer *trace.Tracer
	var traceBuf *bufio.Writer
	if tracing {
		recCfg := trace.RecorderConfig{}
		if *explainClient != "" {
			recCfg.Clients = []string{*explainClient}
		}
		if *traceOut != "" {
			tf, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("create -trace-out: %w", err)
			}
			defer tf.Close()
			traceBuf = bufio.NewWriterSize(tf, 1<<16)
			enc := json.NewEncoder(traceBuf)
			recCfg.Sink = func(r trace.Record) { _ = enc.Encode(r) }
		}
		tshards := 0
		if pmode == pipeline.Sharded {
			tshards = shards
		}
		tracer = trace.New(trace.Config{
			Registry:  reg,
			Detectors: detNames,
			Shards:    tshards,
			Relaxed:   perShard,
			Recorder:  recCfg,
		})
	}

	pipe, err := pipeline.New(pipeline.Config{
		Detectors:   dets,
		Factories:   factories,
		Reputation:  iprep.BuildFeed(),
		Mitigation:  policy,
		Mode:        pmode,
		Shards:      shards,
		EvictWindow: *window,
		EvictEvery:  *evictEvery,
		Trace:       tracer,
	})
	if err != nil {
		return err
	}

	if *loadState != "" {
		if err := loadStateFile(*loadState, pipe, policy != nil); err != nil {
			return err
		}
	}

	var labels []detector.Label
	if *labelPath != "" {
		lf, err := os.Open(*labelPath)
		if err != nil {
			return err
		}
		labels, err = workload.ReadLabels(lf)
		lf.Close()
		if err != nil {
			return err
		}
	}

	// Build the entry source: a rotation-surviving tail in follow mode, a
	// plain streaming reader for replays. Both are pull-based, so the
	// pipeline's capacity is the only backpressure mechanism needed.
	var src pipeline.EntrySource
	var follower *stream.Follower
	if *follow {
		follower, err = stream.NewFollower(stream.FollowerConfig{Path: *logPath})
		if err != nil {
			return err
		}
		defer follower.Close()
		src = follower.Next
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-sigCh:
				follower.Stop()
			case <-done:
			}
		}()
	} else {
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if *parseWorkers != 1 {
			// Chunked parallel parse: newline-aligned chunks fan out to
			// worker goroutines and reassemble in sequence, so the entry
			// stream is byte-identical to the plain reader's.
			plr := logfmt.NewParallelReader(f, logfmt.ParallelConfig{
				Policy:  logfmt.Skip,
				Workers: *parseWorkers,
			})
			defer plr.Close()
			src = func() (logfmt.Entry, error) {
				var e logfmt.Entry
				err := plr.NextInto(&e)
				return e, err
			}
		} else {
			lr := logfmt.NewReader(f, logfmt.ReaderConfig{Policy: logfmt.Skip})
			src = lr.Next
		}
	}

	// The crash-safe saver behind periodic checkpoints, and the watchdog
	// that surfaces its failures (plus the follower's read errors) on the
	// health endpoint. Both exist only when there is something to watch.
	var ckSaver *checkpoint.Saver
	if *checkpointPath != "" {
		ckSaver, err = checkpoint.NewSaver(checkpoint.Config{
			Path:   *checkpointPath,
			Retain: *checkpointRetain,
		})
		if err != nil {
			return err
		}
	}
	wd := newWatchdog(ckSaver, follower, pipe, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scrapedetect: watchdog: "+format+"\n", args...)
	})

	live := newLiveMetrics(reg, pipe, follower)
	live.wireFailurePlane(wd, ckSaver, *checkpointRetain)
	live.wireTrace(tracer.Recorder(), *pprofHTTP)
	if *clusterListen != "" {
		// From here on peer merges reach the shards' engines, and the
		// judging loops take the shard locks.
		backend, err := pipe.ClusterBackend()
		if err != nil {
			return err
		}
		peers := splitPeers(*clusterPeers, *clusterListen)
		clu, err := startCluster(*clusterListen, peers, clusterPol, backend, tracer.Recorder(),
			func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "scrapedetect: "+format+"\n", args...)
			})
		if err != nil {
			return err
		}
		defer clu.shutdown()
		clu.node.RegisterMetrics(reg)
		live.wireCluster(clu.node)
		fmt.Fprintf(os.Stderr, "scrapedetect: cluster node %s on %s (%d peers, %s)\n",
			*clusterListen, clu.addr, len(peers), clusterPol)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: live.handler(modeNameOf(pmode), shards, *follow, *window)}
		go func() { _ = srv.Serve(ln) }()
		// Graceful teardown: a scrape in flight when the run ends finishes
		// inside the deadline instead of seeing a reset connection.
		defer shutdownServer(srv, debugShutdownTimeout)
		fmt.Fprintf(os.Stderr, "scrapedetect: metrics on http://%s/debug/divscrape/metrics\n", ln.Addr())
	}

	var verdictOut *alertlog.Writer
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		verdictOut, err = alertlog.NewWriter(of, pipe.Detectors())
		if err != nil {
			return err
		}
	}

	var (
		checkpoints uint64
		processed   atomic.Uint64 // the -max-events bound, counted across sinks
	)
	// The event bound ends the run cleanly from inside a sink.
	errMaxEvents := errors.New("event bound reached")
	// newSink builds a decision sink counting into t: the one sink of a
	// sequential or ordered run, or one of a per-shard run's — the live
	// metrics it shares with its peers are concurrency-safe, and the CSV
	// writer, the one thing here that is not, exists only in an ordered
	// run. What the ladder did to the request arrives in d.Outcome, and
	// the flight record was captured upstream, by the shard that judged it
	// or the ordered delivery's emitter. Exactly one sink polls the
	// watchdog.
	newSink := func(t *tally, polls bool) pipeline.Sink {
		return func(d pipeline.Decision) error {
			live.events.Inc()
			for i := range d.Verdicts {
				if d.Verdicts[i].Alert {
					live.alerts[i].Inc()
				}
			}
			if d.Outcome.Flow == shard.FlowVerify {
				t.passed++
			}
			if d.Outcome.Ladder.Tagged {
				t.tagged++
				live.tagged.Inc()
			}
			if verdictOut != nil {
				if err := verdictOut.WriteAt(d.Req.Seq, d.Verdicts); err != nil {
					return err
				}
			}
			malicious := false
			if labels != nil {
				if d.Req.Seq >= uint64(len(labels)) {
					return fmt.Errorf("label sidecar shorter than log (request %d)", d.Req.Seq)
				}
				malicious = labels[d.Req.Seq].Malicious()
			}
			t.table.Add(d.Verdicts, malicious)
			t.seen++
			if polls && t.seen%watchdogEvery == 0 {
				wd.poll()
			}
			if *maxEvents > 0 && processed.Add(1) >= *maxEvents {
				if follower != nil {
					follower.Stop()
				}
				return errMaxEvents
			}
			return nil
		}
	}
	// Periodic checkpoints cut the stream at the source: every
	// -checkpoint-every entries the pipeline sees an end of stream, drains
	// (every ring, in shard mode) and returns, the state plane serialises
	// it idle, and the next run continues on the same source.
	var seg *segments
	if ckSaver != nil {
		seg = &segments{src: src, every: *checkpointEvery}
		src = seg.next
	}
	// Per-shard delivery counts into private tallies, merged below; shard
	// 0's sink is the one that polls the watchdog.
	parts := make([]*tally, 1)
	if perShard {
		parts = make([]*tally, pipe.Shards())
	}
	sinks := make([]pipeline.Sink, len(parts))
	for i := range sinks {
		if parts[i], err = newTally(len(dets)); err != nil {
			return err
		}
		sinks[i] = newSink(parts[i], i == 0)
	}
	// A side that panics is quarantined and the run goes on; each run
	// reports its quarantines, which the process exits with once the
	// report and the state are written.
	var panics []error
	started := time.Now()
	for {
		if perShard {
			err = pipe.RunRelaxed(context.Background(), src, sinks)
		} else {
			err = pipe.Run(context.Background(), src, sinks[0])
		}
		var lost []error
		err, lost = pipeline.SplitPanics(err)
		panics = append(panics, lost...)
		if err != nil || seg == nil || !seg.cut {
			break
		}
		seg.cut = false
		// A failed periodic checkpoint degrades durability, not detection:
		// the run continues on the previous generations and the watchdog
		// flags the process degraded until a save lands.
		if err := saveStateTo(ckSaver, pipe, policy != nil); err != nil {
			fmt.Fprintf(os.Stderr, "scrapedetect: periodic checkpoint failed (state plane degraded, will retry): %v\n", err)
		} else {
			checkpoints++
			live.checkpoints.Inc()
		}
		wd.poll()
	}
	if err != nil && !errors.Is(err, errMaxEvents) {
		return err
	}
	var sum tally
	for _, part := range parts {
		sum.merge(part)
	}
	table := &sum.table
	total := table.Total()
	if verdictOut != nil {
		if err := verdictOut.Flush(); err != nil {
			return err
		}
	}
	if traceBuf != nil {
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("flush -trace-out: %w", err)
		}
	}
	// The final saves stay fatal: unlike a periodic checkpoint (where the
	// run continues and retries later), an exit without durable state is
	// exactly what -checkpoint/-save-state exist to prevent.
	if ckSaver != nil {
		if err := saveStateTo(ckSaver, pipe, policy != nil); err != nil {
			return err
		}
		checkpoints++
		live.checkpoints.Inc()
	}
	if *saveState != "" {
		finalSaver, err := checkpoint.NewSaver(checkpoint.Config{Path: *saveState, Retain: 1})
		if err != nil {
			return err
		}
		if err := saveStateTo(finalSaver, pipe, policy != nil); err != nil {
			return err
		}
	}
	elapsed := time.Since(started)

	fmt.Fprintf(w, "analysed %s requests in %v (%.0f req/s, mode=%s, shards=%d)\n\n",
		report.Count(total), elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), modeNameOf(pmode), shards)
	if *follow {
		fs := follower.Stats()
		sweeps, evicted := pipe.EvictionStats()
		fmt.Fprintf(w, "follow: rotations=%d truncations=%d skipped=%d sweeps=%d evicted=%d checkpoints=%d\n\n",
			fs.Rotations, fs.Truncations, fs.Skipped, sweeps, evicted, checkpoints)
	}

	t := &report.Table{
		Title:   "Alert diversity",
		Columns: []string{"Bucket", "Count", "Share"},
		Aligns:  []report.Align{report.Left, report.Right, report.Right},
	}
	allLabel, noneLabel := "All tools", "None"
	if len(dets) == 2 {
		allLabel, noneLabel = "Both tools", "Neither"
	}
	t.AddRow(allLabel, report.Count(table.All()), report.Percent(table.All(), total))
	t.AddRow(noneLabel, report.Count(table.None()), report.Percent(table.None(), total))
	for i, name := range detNames {
		t.AddRow(name+" only", report.Count(table.Only(i)), report.Percent(table.Only(i), total))
	}
	if err := t.Render(w); err != nil {
		return err
	}

	if policy != nil {
		counts := pipe.LadderCounts()
		denom := counts.Total()
		fmt.Fprintln(w)
		mt := &report.Table{
			Title:   "Mitigation replay (" + *mitigateName + ", what-if)",
			Columns: []string{"Action", "Count", "Share"},
			Aligns:  []report.Align{report.Left, report.Right, report.Right},
		}
		mt.AddRow("Allow", report.Count(counts.Allowed), report.Percent(counts.Allowed, denom))
		mt.AddRow("Tarpit", report.Count(counts.Tarpitted), report.Percent(counts.Tarpitted, denom))
		mt.AddRow("Challenge", report.Count(counts.Challenged), report.Percent(counts.Challenged, denom))
		mt.AddRow("Block", report.Count(counts.Blocked), report.Percent(counts.Blocked, denom))
		mt.AddRow("Tagged", report.Count(sum.tagged), report.Percent(sum.tagged, denom))
		mt.AddRow("Challenges passed", report.Count(sum.passed), "")
		if err := mt.Render(w); err != nil {
			return err
		}
	}

	if labels != nil {
		fmt.Fprintln(w)
		m := &report.Table{
			Title:   "Labelled metrics",
			Columns: append([]string{"Metric"}, detNames...),
			Aligns:  append([]report.Align{report.Left}, make([]report.Align, len(dets))...),
		}
		for i := range dets {
			m.Aligns[i+1] = report.Right
		}
		row := func(name string, f func(evaluate.Confusion) float64) {
			cells := make([]string, 0, len(dets)+1)
			cells = append(cells, name)
			for i := range dets {
				cells = append(cells, report.Metric(f(table.Confusion(i))))
			}
			m.AddRow(cells...)
		}
		row("Sensitivity", evaluate.Confusion.Sensitivity)
		row("Specificity", evaluate.Confusion.Specificity)
		row("Precision", evaluate.Confusion.Precision)
		row("F1", evaluate.Confusion.F1)
		if err := m.Render(w); err != nil {
			return err
		}
	}

	if *explainClient != "" {
		fmt.Fprintln(w)
		printExplain(w, tracer.Recorder().Explain(*explainClient))
	}
	return errors.Join(panics...)
}
