package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestDisarmedPointIsInert(t *testing.T) {
	p := At("test.inert")
	if p.Enabled() {
		t.Fatal("fresh point armed")
	}
	if err := p.Fire(); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if f := p.Active(); f != nil {
		t.Fatalf("disarmed Active returned %+v", f)
	}
	if s := p.Skew(); s != 0 {
		t.Fatalf("disarmed Skew returned %v", s)
	}
}

func TestDisarmedFireDoesNotAllocate(t *testing.T) {
	p := At("test.alloc")
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.Fire(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disarmed Fire allocates %.1f/op, want 0", allocs)
	}
}

func TestAfterAndTimesAccounting(t *testing.T) {
	t.Cleanup(Reset)
	boom := errors.New("boom")
	Enable("test.window", Fault{Err: boom, After: 2, Times: 3})
	p := At("test.window")
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, p.Fire() != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("passage %d fired=%v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if p.Enabled() {
		t.Error("point still armed after Times exhausted")
	}
}

func TestReArmRestartsAccounting(t *testing.T) {
	t.Cleanup(Reset)
	boom := errors.New("boom")
	Enable("test.rearm", Fault{Err: boom, Times: 1})
	p := At("test.rearm")
	if p.Fire() == nil {
		t.Fatal("first arm did not fire")
	}
	if p.Fire() != nil {
		t.Fatal("fired past Times")
	}
	Enable("test.rearm", Fault{Err: boom, Times: 1})
	if p.Fire() == nil {
		t.Fatal("re-armed point did not fire")
	}
}

func TestPanicInjection(t *testing.T) {
	t.Cleanup(Reset)
	Enable("test.panic", Fault{Panic: "injected", Times: 1})
	p := At("test.panic")
	func() {
		defer func() {
			if r := recover(); r != "injected" {
				t.Fatalf("recovered %v, want injected panic", r)
			}
		}()
		_ = p.Fire()
		t.Fatal("Fire did not panic")
	}()
	if err := p.Fire(); err != nil {
		t.Fatalf("point not disarmed after panic firing: %v", err)
	}
}

func TestDelayUsesInstalledSleep(t *testing.T) {
	t.Cleanup(Reset)
	var slept []time.Duration
	SetSleep(func(d time.Duration) { slept = append(slept, d) })
	Enable("test.delay", Fault{Delay: 5 * time.Second, Times: 1})
	if err := At("test.delay").Fire(); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 5*time.Second {
		t.Fatalf("sleep hook saw %v, want one 5s stall", slept)
	}
}

func TestSkewAndPartial(t *testing.T) {
	t.Cleanup(Reset)
	Enable("test.skew", Fault{Skew: -3 * time.Minute})
	if s := At("test.skew").Skew(); s != -3*time.Minute {
		t.Fatalf("skew %v", s)
	}
	Enable("test.partial", Fault{Err: errors.New("short"), Partial: 7})
	f := At("test.partial").Active()
	if f == nil || f.Partial != 7 {
		t.Fatalf("active fault %+v, want Partial 7", f)
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	Enable("test.reset.a", Fault{Err: errors.New("a")})
	Enable("test.reset.b", Fault{Err: errors.New("b")})
	if !Armed() {
		t.Fatal("Armed is false with two points armed")
	}
	Disable("test.reset.a")
	if !Armed() {
		t.Fatal("Armed is false with a point still armed")
	}
	Reset()
	if At("test.reset.a").Enabled() || At("test.reset.b").Enabled() {
		t.Fatal("Reset left a point armed")
	}
	if Armed() {
		t.Fatal("Armed is true after Reset")
	}
}
