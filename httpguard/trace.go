package httpguard

import "divscrape/internal/trace"

// Provenance plane: when Config.Trace is set, every decision passes
// through the flight recorder's sampler (one atomic add) and the sampled
// ones — plus every escalation and every watched client — are captured
// as complete trace.Records by the decision step itself (shard.Judge),
// so under the shard lock: the recorder mutex is a leaf below it, and the
// ordering is acyclic.

// FlightRecorder returns the guard's decision flight recorder, or nil
// when tracing is disabled (Config.Trace nil). The nil recorder is safe
// to use; every method no-ops.
func (g *Guard) FlightRecorder() *trace.Recorder { return g.trace.Recorder() }

// Tracer returns the guard's tracer, or nil when tracing is disabled.
func (g *Guard) Tracer() *trace.Tracer { return g.trace }
