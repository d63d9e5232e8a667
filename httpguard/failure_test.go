package httpguard

import (
	"context"
	"testing"
	"time"
)

func TestDegradedModeNames(t *testing.T) {
	if FailOpen.String() != "fail-open" || FailClosed.String() != "fail-closed" {
		t.Fatalf("mode names: %q %q", FailOpen, FailClosed)
	}
}

func TestFailureConfigDefaults(t *testing.T) {
	g := newGuard(t, Config{})
	if g.cfg.MaxInFlight != 256 {
		t.Fatalf("MaxInFlight default %d, want 256", g.cfg.MaxInFlight)
	}
	if g.cfg.QuarantineBackoff != 30*time.Second {
		t.Fatalf("QuarantineBackoff default %v, want 30s", g.cfg.QuarantineBackoff)
	}
	if g.cfg.Degraded != FailOpen {
		t.Fatalf("Degraded default %v, want fail-open", g.cfg.Degraded)
	}
	// Negative disables the admission gate entirely.
	g = newGuard(t, Config{MaxInFlight: -1})
	if g.cfg.MaxInFlight != 0 {
		t.Fatalf("negative MaxInFlight normalised to %d, want 0", g.cfg.MaxInFlight)
	}
}

func TestTarpitObservesContextCancellation(t *testing.T) {
	// No injected Sleep: the tarpit runs its real timer path, but the
	// context is already cancelled, so it must return immediately — a
	// disconnected client's goroutine is never pinned for the delay.
	g := newGuard(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan struct{})
	go func() {
		g.tarpit(ctx, time.Hour)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tarpit ignored context cancellation")
	}
}

func TestTarpitUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	g := newGuard(t, Config{
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	g.tarpit(context.Background(), 3*time.Second)
	if len(slept) != 1 || slept[0] != 3*time.Second {
		t.Fatalf("injected sleep saw %v", slept)
	}
}

func TestTarpitZeroDelayReturns(t *testing.T) {
	g := newGuard(t, Config{})
	g.tarpit(context.Background(), 0) // must not touch a timer
}
