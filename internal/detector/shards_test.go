package detector

import (
	"errors"
	"strings"
	"testing"
	"time"

	"divscrape/internal/statecodec"
)

// The fakes carry exactly the capability each case is about.

// bare is a Detector and nothing more: no eviction, no snapshots.
type bare struct{ name string }

func (d *bare) Name() string                   { return d.name }
func (d *bare) Inspect(*Request) Verdict       { return Verdict{} }
func (d *bare) InspectInto(*Request, *Verdict) {}
func (d *bare) Reset()                         {}

// evicting drops n entries per sweep and remembers the cutoff it was given.
type evicting struct {
	bare
	n      int
	cutoff time.Time
}

func (d *evicting) EvictBefore(cutoff time.Time) int {
	d.cutoff = cutoff
	return d.n
}

// single is a plain Snapshotter: one value, no way to merge instances.
type single struct {
	bare
	v uint64
}

func (d *single) SnapshotInto(w *statecodec.Writer) { w.Uint64(d.v) }
func (d *single) RestoreFrom(r *statecodec.Reader) error {
	d.v = r.Uint64()
	return r.Err()
}

// sharded holds one value per address and merges across instances: the
// canonical block is the count, then (ip, value) in role order.
type sharded struct {
	single
	byIP map[uint32]uint64
}

func (d *sharded) SnapshotShardsInto(w *statecodec.Writer, role []Detector) error {
	n := 0
	for _, m := range role {
		n += len(m.(*sharded).byIP)
	}
	w.Uint32(uint32(n))
	for _, m := range role {
		for ip, v := range m.(*sharded).byIP {
			w.Uint32(ip)
			w.Uint64(v)
		}
	}
	return w.Err()
}

func (d *sharded) RestoreShards(r *statecodec.Reader, role []Detector, part func(uint32) int) error {
	for _, m := range role {
		m.(*sharded).byIP = map[uint32]uint64{}
	}
	for n := r.Uint32(); n > 0 && r.Err() == nil; n-- {
		ip := r.Uint32()
		role[part(ip)].(*sharded).byIP[ip] = r.Uint64()
	}
	return r.Err()
}

func TestBuild(t *testing.T) {
	boom := errors.New("boom")
	built := 0
	ok := func(name string) Factory {
		return func() (Detector, error) {
			built++
			return &bare{name: name}, nil
		}
	}
	for _, tc := range []struct {
		name      string
		factories []Factory
		wantErr   string // substring; "" means success
	}{
		{"none", nil, ""},
		{"two in order", []Factory{ok("a"), ok("b")}, ""},
		{"nil factory", []Factory{ok("a"), nil}, "factory 1 is nil"},
		{"factory error", []Factory{func() (Detector, error) { return nil, boom }}, "build detector 0: boom"},
		{"nil detector", []Factory{ok("a"), ok("b"), func() (Detector, error) { return nil, nil }}, "factory 2 returned nil detector"},
	} {
		dets, err := Build(tc.factories)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || dets != nil {
				t.Errorf("%s: Build = %v, %v; want an error holding %q", tc.name, dets, err, tc.wantErr)
			}
			continue
		}
		if err != nil || len(dets) != len(tc.factories) {
			t.Errorf("%s: Build = %v, %v", tc.name, dets, err)
			continue
		}
		for i, want := range []string{"a", "b"}[:len(dets)] {
			if dets[i].Name() != want {
				t.Errorf("%s: detector %d is %q, want %q", tc.name, i, dets[i].Name(), want)
			}
		}
	}
	if _, err := Build([]Factory{func() (Detector, error) { return nil, boom }}); !errors.Is(err, boom) {
		t.Errorf("Build does not wrap the factory's error: %v", err)
	}
	// Every call builds fresh instances: shards never share one.
	built = 0
	a, _ := Build([]Factory{ok("a")})
	b, _ := Build([]Factory{ok("a")})
	if built != 2 || a[0] == b[0] {
		t.Errorf("two Builds made %d instances, shared=%v", built, a[0] == b[0])
	}
}

func TestEvictBeforeSkipsWhatCannotEvict(t *testing.T) {
	cutoff := time.Date(2018, 3, 12, 10, 0, 0, 0, time.UTC)
	a, b := &evicting{n: 3}, &evicting{n: 4}
	dets := []Detector{a, &bare{name: "plain"}, b, &single{}}
	if got := EvictBefore(dets, cutoff); got != 7 {
		t.Errorf("EvictBefore = %d, want 7", got)
	}
	if !a.cutoff.Equal(cutoff) || !b.cutoff.Equal(cutoff) {
		t.Errorf("cutoffs %v, %v; want %v", a.cutoff, b.cutoff, cutoff)
	}
	if got := EvictBefore(nil, cutoff); got != 0 {
		t.Errorf("EvictBefore(nil) = %d", got)
	}
}

func TestRolesTransposes(t *testing.T) {
	if roles := Roles(nil); roles != nil {
		t.Errorf("Roles(nil) = %v", roles)
	}
	const shards, dets = 3, 2
	grid := make([][]Detector, shards)
	for i := range grid {
		grid[i] = []Detector{&bare{name: "a"}, &bare{name: "b"}}
	}
	roles := Roles(grid)
	if len(roles) != dets {
		t.Fatalf("%d roles, want %d", len(roles), dets)
	}
	for j, role := range roles {
		if len(role) != shards {
			t.Fatalf("role %d has %d instances, want %d", j, len(role), shards)
		}
		for i := range role {
			if role[i] != grid[i][j] {
				t.Errorf("roles[%d][%d] is not shards[%d][%d]", j, i, i, j)
			}
		}
	}
	// An unsharded host is the one-shard case: roles of one.
	if roles := Roles(grid[:1]); len(roles) != dets || len(roles[0]) != 1 || roles[1][0] != grid[0][1] {
		t.Errorf("Roles of one shard = %v", roles)
	}
}

func TestSnapshotRestoreRole(t *testing.T) {
	byShard := func(ip uint32) int { return int(ip % 2) }
	for _, tc := range []struct {
		name    string
		from    []Detector
		into    []Detector
		wantErr string
		check   func(t *testing.T, into []Detector)
	}{
		{
			name: "single-instance Snapshotter accepted",
			from: []Detector{&single{v: 42}},
			into: []Detector{&single{}},
			check: func(t *testing.T, into []Detector) {
				if got := into[0].(*single).v; got != 42 {
					t.Errorf("restored %d, want 42", got)
				}
			},
		},
		{
			name:    "multi-instance Snapshotter refused",
			from:    []Detector{&single{bare: bare{name: "solo"}}, &single{}},
			wantErr: "solo does not support sharded snapshots",
		},
		{
			name:    "no Snapshotter refused",
			from:    []Detector{&bare{name: "plain"}},
			wantErr: "plain does not support snapshots",
		},
		{
			name: "ShardedSnapshotter merges one role and parts it over another",
			from: []Detector{
				&sharded{byIP: map[uint32]uint64{1: 10}},
				&sharded{byIP: map[uint32]uint64{2: 20}},
				&sharded{byIP: map[uint32]uint64{3: 30}},
			},
			into: []Detector{&sharded{}, &sharded{}},
			check: func(t *testing.T, into []Detector) {
				even, odd := into[0].(*sharded).byIP, into[1].(*sharded).byIP
				if len(even) != 1 || even[2] != 20 || len(odd) != 2 || odd[1] != 10 || odd[3] != 30 {
					t.Errorf("restored even=%v odd=%v", even, odd)
				}
			},
		},
	} {
		w := statecodec.NewWriter()
		err := SnapshotRole(w, tc.from)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: SnapshotRole = %v, want an error holding %q", tc.name, err, tc.wantErr)
			}
			if w.Len() != 0 {
				t.Errorf("%s: a refused role wrote %d bytes", tc.name, w.Len())
			}
			// The same role is refused on the way back in.
			if err := RestoreRole(statecodec.NewReader(nil), tc.from, byShard); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: RestoreRole = %v, want an error holding %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil || w.Err() != nil {
			t.Errorf("%s: SnapshotRole = %v (writer %v)", tc.name, err, w.Err())
			continue
		}
		r := statecodec.NewReader(w.Bytes())
		if err := RestoreRole(r, tc.into, byShard); err != nil || r.Remaining() != 0 {
			t.Errorf("%s: RestoreRole = %v with %d bytes left", tc.name, err, r.Remaining())
			continue
		}
		tc.check(t, tc.into)
	}
}
