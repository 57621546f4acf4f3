package scrub

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
)

func bankGeom(rows int) device.BankGeometry { return device.BankGeometry{Rows: rows, Cols: 32} }

// fakeStore is a scriptable RowStore: each row reports a fixed outcome until
// the test changes it, and every read and retire is logged.
type fakeStore struct {
	rows    int
	outcome []ecc.DecodeResult
	reads   []int
	retired []int
	readErr error
}

func newFakeStore(rows int) *fakeStore {
	return &fakeStore{rows: rows, outcome: make([]ecc.DecodeResult, rows)}
}

func (f *fakeStore) Rows() int { return f.rows }

func (f *fakeStore) PatrolRead(row int, now float64) (PatrolResult, error) {
	if f.readErr != nil {
		return PatrolResult{}, f.readErr
	}
	f.reads = append(f.reads, row)
	return PatrolResult{Outcome: f.outcome[row], Charge: 1}, nil
}

func (f *fakeStore) Retire(row int) error {
	f.retired = append(f.retired, row)
	return nil
}

// fakeSched records the repair calls the scrubber makes. It implements all
// three repair capabilities; the capability-preference tests mask them off
// through wrapper types below.
type fakeSched struct {
	demoted, upgraded, promoted []int
}

func (s *fakeSched) Name() string                   { return "fake" }
func (s *fakeSched) Period(int) float64             { return 0.064 }
func (s *fakeSched) RefreshOp(int, float64) core.Op { return core.Op{Full: true, Cycles: 1, Alpha: 1} }
func (s *fakeSched) OnAccess(int, float64)          {}
func (s *fakeSched) MPRSF(int) int                  { return 0 }
func (s *fakeSched) Demote(row int)                 { s.demoted = append(s.demoted, row) }
func (s *fakeSched) Upgrade(row int)                { s.upgraded = append(s.upgraded, row) }
func (s *fakeSched) Promote(row int)                { s.promoted = append(s.promoted, row) }

// upgradeOnlySched masks off Demote/Promote so the fallback path is used.
type upgradeOnlySched struct{ inner *fakeSched }

func (s upgradeOnlySched) Name() string       { return "fake-up" }
func (s upgradeOnlySched) Period(int) float64 { return 0.064 }
func (s upgradeOnlySched) RefreshOp(int, float64) core.Op {
	return core.Op{Full: true, Cycles: 1, Alpha: 1}
}
func (s upgradeOnlySched) OnAccess(int, float64) {}
func (s upgradeOnlySched) MPRSF(int) int         { return 0 }
func (s upgradeOnlySched) Upgrade(row int)       { s.inner.Upgrade(row) }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SweepPeriod: -1},
		{Window: -1},
		{MinCoverage: 2},
		{CleanPromote: -3},
		{Floor: -0.1},
		{BackoffBase: 0.5, BackoffMax: 0.25},
	}
	for i, cfg := range bad {
		if _, err := New(newFakeStore(4), cfg); err == nil {
			t.Errorf("case %d: New accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New accepted a nil store")
	}
	if _, err := New(newFakeStore(0), Config{}); err == nil {
		t.Fatal("New accepted an empty store")
	}
}

func TestPatrolCursorAndCadence(t *testing.T) {
	st := newFakeStore(4)
	s, err := New(st, Config{SweepPeriod: 0.064})
	if err != nil {
		t.Fatal(err)
	}
	interval := 0.064 / 4
	now := s.NextDue()
	for i := 0; i < 8; i++ {
		visited, err := s.Tick(now, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !visited {
			t.Fatalf("tick %d: idle bank not patrolled", i)
		}
		if got := s.NextDue(); got != now+interval {
			t.Fatalf("tick %d: next due %g, want %g", i, got, now+interval)
		}
		now = s.NextDue()
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	if !reflect.DeepEqual(st.reads, want) {
		t.Fatalf("patrol order %v, want %v", st.reads, want)
	}
	if st := s.ScrubSnapshot(now); st.RowsPatrolled != 8 {
		t.Fatalf("RowsPatrolled = %d, want 8", st.RowsPatrolled)
	}
}

func TestBusyBackoff(t *testing.T) {
	st := newFakeStore(4)
	s, err := New(st, Config{BackoffBase: 1e-6, BackoffMax: 4e-6})
	if err != nil {
		t.Fatal(err)
	}
	now := s.NextDue()
	busyUntil := now + 1.0 // bank busy far into the future
	// Deferrals double the backoff up to the cap.
	wantGaps := []float64{1e-6, 2e-6, 4e-6, 4e-6}
	for i, gap := range wantGaps {
		if visited, err := s.Tick(now, busyUntil); err != nil || visited {
			t.Fatalf("tick %d: visited=%v err=%v on a busy bank", i, visited, err)
		}
		if got := s.NextDue() - now; math.Abs(got-gap) > 1e-9*gap {
			t.Fatalf("tick %d: backoff gap %g, want %g", i, got, gap)
		}
		now = s.NextDue()
	}
	if len(st.reads) != 0 {
		t.Fatalf("busy bank was read: %v", st.reads)
	}
	// An idle tick patrols and resets the backoff.
	if visited, err := s.Tick(now, 0); err != nil || !visited {
		t.Fatalf("idle tick: visited=%v err=%v", visited, err)
	}
	stats := s.ScrubSnapshot(now)
	if stats.BusyRetries != 4 {
		t.Fatalf("BusyRetries = %d, want 4", stats.BusyRetries)
	}
	if s.backoff != 1e-6 {
		t.Fatalf("backoff not reset after an idle visit: %g", s.backoff)
	}
}

func TestCoverageSLO(t *testing.T) {
	st := newFakeStore(4)
	s, err := New(st, Config{SweepPeriod: 0.064, Window: 0.064, MinCoverage: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Starve the patrol for two full windows: the bank stays busy, so zero
	// rows are visited and both windows miss their SLO.
	if _, err := s.Tick(0.130, 1.0); err != nil {
		t.Fatal(err)
	}
	if got := s.ScrubSnapshot(0.130).SLOMisses; got != 2 {
		t.Fatalf("SLOMisses = %d, want 2", got)
	}
	// ScrubSnapshot must be non-mutating: the live counter still books the
	// same misses when the window actually rolls.
	if got := s.stats.SLOMisses; got != 2 {
		t.Fatalf("live SLOMisses = %d, want 2 (rolled by Tick)", got)
	}
}

func TestHealAfterKCleanPatrols(t *testing.T) {
	const K = 3
	st := newFakeStore(4)
	sched := &fakeSched{}
	reprofiled := []int{}
	s, err := New(st, Config{
		CleanPromote: K,
		Sched:        sched,
		Reprofile: func(row int) (float64, error) {
			reprofiled = append(reprofiled, row)
			return 0.128, nil // healthy: above the floor
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.outcome[2] = ecc.Corrected
	if err := s.SweepOnce(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.demoted, []int{2}) {
		t.Fatalf("demoted %v, want [2]", sched.demoted)
	}
	if !reflect.DeepEqual(reprofiled, []int{2}) {
		t.Fatalf("reprofiled %v, want [2]", reprofiled)
	}
	if !reflect.DeepEqual(s.Suspects(), []int{2}) {
		t.Fatalf("suspects %v, want [2]", s.Suspects())
	}
	// A second offense while already suspect must not re-profile again.
	if err := s.SweepOnce(0.064); err != nil {
		t.Fatal(err)
	}
	if len(reprofiled) != 1 {
		t.Fatalf("re-profiled a known suspect: %v", reprofiled)
	}
	// The row recovers: K clean sweeps heal and promote it.
	st.outcome[2] = ecc.OK
	for i := 0; i < K; i++ {
		if len(sched.promoted) != 0 {
			t.Fatalf("promoted after only %d clean sweeps", i)
		}
		if err := s.SweepOnce(0.128 + float64(i)*0.064); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(sched.promoted, []int{2}) {
		t.Fatalf("promoted %v, want [2]", sched.promoted)
	}
	if len(s.Suspects()) != 0 {
		t.Fatalf("suspects %v after healing, want none", s.Suspects())
	}
	stats := s.ScrubSnapshot(1)
	if stats.Corrected != 2 || stats.RowsHealed != 1 || stats.Reprofiles != 1 {
		t.Fatalf("stats = %+v, want Corrected 2, RowsHealed 1, Reprofiles 1", stats)
	}
}

func TestUpgradeFallbackWithoutDemoter(t *testing.T) {
	st := newFakeStore(2)
	inner := &fakeSched{}
	s, err := New(st, Config{Sched: upgradeOnlySched{inner: inner}})
	if err != nil {
		t.Fatal(err)
	}
	st.outcome[1] = ecc.Corrected
	if err := s.SweepOnce(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inner.upgraded, []int{1}) {
		t.Fatalf("upgraded %v, want [1]", inner.upgraded)
	}
	if len(inner.demoted) != 0 {
		t.Fatalf("demoted %v through an upgrade-only scheduler", inner.demoted)
	}
}

func TestReprofileBelowFloorQuarantines(t *testing.T) {
	st := newFakeStore(4)
	s, err := New(st, Config{
		Floor:     0.064,
		Spares:    2,
		Reprofile: func(int) (float64, error) { return 0.032, nil }, // below floor
	})
	if err != nil {
		t.Fatal(err)
	}
	st.outcome[1] = ecc.Corrected
	if err := s.SweepOnce(0); err != nil {
		t.Fatal(err)
	}
	if !s.IsQuarantined(1) {
		t.Fatal("row measuring below the floor was not quarantined")
	}
	if !reflect.DeepEqual(st.retired, []int{1}) {
		t.Fatalf("store retired %v, want [1]", st.retired)
	}
	stats := s.ScrubSnapshot(1)
	if stats.RowsRemapped != 1 || stats.SparesLeft != 1 {
		t.Fatalf("stats = %+v, want RowsRemapped 1, SparesLeft 1", stats)
	}
}

func TestReprofileError(t *testing.T) {
	st := newFakeStore(2)
	s, err := New(st, Config{Reprofile: func(int) (float64, error) { return 0, fmt.Errorf("boom") }})
	if err != nil {
		t.Fatal(err)
	}
	st.outcome[0] = ecc.Corrected
	if err := s.SweepOnce(0); err == nil {
		t.Fatal("re-profile error was swallowed")
	}
}

func TestUncorrectableQuarantineAndExhaustion(t *testing.T) {
	st := newFakeStore(4)
	sched := &fakeSched{}
	var escalated []int
	s, err := New(st, Config{
		Spares:     2,
		Sched:      sched,
		OnHardFail: func(row int) { escalated = append(escalated, row) },
	})
	if err != nil {
		t.Fatal(err)
	}
	st.outcome[0] = ecc.Uncorrectable
	st.outcome[1] = ecc.Uncorrectable
	st.outcome[3] = ecc.Uncorrectable
	if err := s.SweepOnce(0); err != nil {
		t.Fatal(err)
	}
	// Rows 0 and 1 consume the two spares; row 3 finds the pool dry.
	if !reflect.DeepEqual(s.Remapped(), []int{0, 1}) {
		t.Fatalf("remapped %v, want [0 1]", s.Remapped())
	}
	if !reflect.DeepEqual(st.retired, []int{0, 1}) {
		t.Fatalf("store retired %v, want [0 1]", st.retired)
	}
	if !reflect.DeepEqual(escalated, []int{3}) {
		t.Fatalf("hard-fail escalations %v, want [3]", escalated)
	}
	if !s.IsQuarantined(3) {
		t.Fatal("hard-failed row not reported quarantined")
	}
	// Best-effort containment: the hard-failed row was pinned fastest.
	if !reflect.DeepEqual(sched.upgraded, []int{3}) {
		t.Fatalf("upgraded %v, want [3]", sched.upgraded)
	}
	stats := s.ScrubSnapshot(1)
	if stats.Uncorrectable != 3 || stats.RowsRemapped != 2 || stats.HardFails != 1 || stats.SparesLeft != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// Quarantined rows are skipped on later patrols: read log stays flat.
	reads := len(st.reads)
	if err := s.SweepOnce(0.064); err != nil {
		t.Fatal(err)
	}
	if got := len(st.reads) - reads; got != 1 { // only row 2 is still live
		t.Fatalf("second sweep read %d rows, want 1", got)
	}
	// A second uncorrectable report against a remapped row must not consume
	// anything further (double-remap protection).
	if err := s.OnEccEvent(0, ecc.Uncorrectable); err != nil {
		t.Fatal(err)
	}
	after := s.ScrubSnapshot(1)
	if after.Uncorrectable != 3 || after.RowsRemapped != 2 || after.HardFails != 1 {
		t.Fatalf("double-remap changed stats: %+v", after)
	}
}

func TestOnEccEventMatchesPatrolResponse(t *testing.T) {
	st := newFakeStore(4)
	sched := &fakeSched{}
	s, err := New(st, Config{Sched: sched, Spares: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OnEccEvent(2, ecc.Corrected); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.demoted, []int{2}) {
		t.Fatalf("demoted %v, want [2]", sched.demoted)
	}
	if err := s.OnEccEvent(3, ecc.Uncorrectable); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Remapped(), []int{3}) {
		t.Fatalf("remapped %v, want [3]", s.Remapped())
	}
	// Out-of-range rows and OK outcomes are no-ops.
	if err := s.OnEccEvent(-1, ecc.Uncorrectable); err != nil {
		t.Fatal(err)
	}
	if err := s.OnEccEvent(99, ecc.Corrected); err != nil {
		t.Fatal(err)
	}
	if err := s.OnEccEvent(0, ecc.OK); err != nil {
		t.Fatal(err)
	}
	if got := s.ScrubSnapshot(0); got.Corrected != 1 || got.Uncorrectable != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestNoteViolation(t *testing.T) {
	s, err := New(newFakeStore(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.NoteViolation(1)
	s.NoteViolation(3)
	s.NoteViolation(-5) // ignored
	s.NoteViolation(99) // ignored
	if !reflect.DeepEqual(s.Suspects(), []int{1, 3}) {
		t.Fatalf("suspects %v, want [1 3]", s.Suspects())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	build := func() (*fakeStore, *Scrubber) {
		st := newFakeStore(8)
		s, err := New(st, Config{Spares: 3, CleanPromote: 4, Reprofile: func(int) (float64, error) { return 0.128, nil }})
		if err != nil {
			t.Fatal(err)
		}
		return st, s
	}
	st, s := build()
	// Drive the scrubber into a state with every feature live: suspects,
	// clean streaks, a remap, a hard fail, backoff, and window progress.
	st.outcome[1] = ecc.Corrected
	st.outcome[4] = ecc.Uncorrectable
	now := s.NextDue()
	for i := 0; i < 11; i++ {
		busy := 0.0
		if i == 5 {
			busy = now + 1e-5 // one deferral to move the backoff off its base
		}
		if _, err := s.Tick(now, busy); err != nil {
			t.Fatal(err)
		}
		now = s.NextDue()
	}
	st.outcome[1] = ecc.OK // start a clean streak on the suspect
	if _, err := s.Tick(now, 0); err != nil {
		t.Fatal(err)
	}

	blob, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	_, fresh := build()
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	blob2, err := fresh.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("restore + re-snapshot is not a fixed point")
	}
	if !reflect.DeepEqual(fresh.Remapped(), s.Remapped()) {
		t.Fatalf("remap table did not survive: %v vs %v", fresh.Remapped(), s.Remapped())
	}
	if !reflect.DeepEqual(fresh.Suspects(), s.Suspects()) {
		t.Fatalf("suspects did not survive: %v vs %v", fresh.Suspects(), s.Suspects())
	}
	if fresh.NextDue() != s.NextDue() {
		t.Fatalf("patrol cadence did not survive: %g vs %g", fresh.NextDue(), s.NextDue())
	}
	if !reflect.DeepEqual(fresh.ScrubSnapshot(1), s.ScrubSnapshot(1)) {
		t.Fatalf("stats did not survive:\n got %+v\nwant %+v", fresh.ScrubSnapshot(1), s.ScrubSnapshot(1))
	}
}

func TestRestoreStateRejectsBadBlobs(t *testing.T) {
	mk := func(rows, spares int) *Scrubber {
		s, err := New(newFakeStore(rows), Config{Spares: spares})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	good, err := mk(4, 2).SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		blob []byte
		into *Scrubber
	}{
		{"garbage", []byte("not a snapshot"), mk(4, 2)},
		{"empty", nil, mk(4, 2)},
		{"truncated", good[:len(good)-3], mk(4, 2)},
		{"trailing", append(append([]byte{}, good...), 0xEE), mk(4, 2)},
		{"row mismatch", good, mk(5, 2)},
		{"budget mismatch", good, mk(4, 3)},
	}
	for _, tc := range cases {
		before, _ := tc.into.SnapshotState()
		if err := tc.into.RestoreState(tc.blob); err == nil {
			t.Errorf("%s: RestoreState accepted the blob", tc.name)
		}
		after, _ := tc.into.SnapshotState()
		if !bytes.Equal(before, after) {
			t.Errorf("%s: a rejected blob mutated the scrubber", tc.name)
		}
	}
}

func TestRestoreStateRejectsInconsistentRemaps(t *testing.T) {
	// Hand-build blobs whose framing is fine but whose remap table is
	// impossible: spare index out of the sequential range, duplicate spares,
	// rows out of order, and a row both failed and remapped.
	encode := func(mutate func(pairs *[][2]int64, failedRow *int64)) []byte {
		pairs := [][2]int64{{0, 0}, {2, 1}}
		failedRow := int64(-1)
		if mutate != nil {
			mutate(&pairs, &failedRow)
		}
		var e core.StateEncoder
		e.Tag(stateTag)
		e.Int(4) // rows
		e.Int(0) // cursor
		e.Float(0.001)
		e.Float(1e-6)
		e.Float(0)
		e.Int(0)
		for i := int64(0); i < 4; i++ {
			e.Bool(false)
			e.Int(0)
			e.Float(0)
			e.Bool(i == failedRow)
		}
		e.Int(2) // spare budget
		e.Int(int64(len(pairs)))
		for _, p := range pairs {
			e.Int(p[0])
			e.Int(p[1])
		}
		for i := 0; i < 9; i++ {
			e.Int(0)
		}
		return e.Data()
	}

	s, err := New(newFakeStore(4), Config{Spares: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(encode(nil)); err != nil {
		t.Fatalf("baseline blob rejected: %v", err)
	}

	bad := map[string]func(p *[][2]int64, f *int64){
		"spare out of sequential range": func(p *[][2]int64, f *int64) { *p = [][2]int64{{0, 1}} },
		"duplicate spare":               func(p *[][2]int64, f *int64) { *p = [][2]int64{{0, 0}, {2, 0}} },
		"rows out of order":             func(p *[][2]int64, f *int64) { *p = [][2]int64{{2, 0}, {0, 1}} },
		"row out of range":              func(p *[][2]int64, f *int64) { *p = [][2]int64{{0, 0}, {9, 1}} },
		"over budget":                   func(p *[][2]int64, f *int64) { *p = [][2]int64{{0, 0}, {1, 1}, {2, 2}} },
		"remapped and failed":           func(p *[][2]int64, f *int64) { *f = 0 },
	}
	for name, mutate := range bad {
		s, err := New(newFakeStore(4), Config{Spares: 2})
		if err != nil {
			t.Fatal(err)
		}
		if name == "over budget" {
			s, err = New(newFakeStore(4), Config{Spares: 2})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RestoreState(encode(mutate)); err == nil {
			t.Errorf("%s: blob accepted", name)
		}
	}
}

func TestRemapTable(t *testing.T) {
	rm := NewRemapTable(2)
	if rm.SparesLeft() != 2 || rm.Total() != 2 || rm.Len() != 0 {
		t.Fatalf("fresh table: %d/%d/%d", rm.SparesLeft(), rm.Total(), rm.Len())
	}
	sp, ok := rm.Remap(7)
	if !ok || sp != 0 {
		t.Fatalf("first remap -> (%d,%v), want (0,true)", sp, ok)
	}
	// Idempotent: a double remap returns the existing spare, consuming none.
	sp2, ok := rm.Remap(7)
	if !ok || sp2 != 0 || rm.SparesLeft() != 1 {
		t.Fatalf("double remap -> (%d,%v) with %d spares left", sp2, ok, rm.SparesLeft())
	}
	if _, ok := rm.Remap(9); !ok {
		t.Fatal("second row rejected with a spare left")
	}
	if _, ok := rm.Remap(11); ok {
		t.Fatal("remap succeeded with no spares left")
	}
	// The exhausted pool still answers for existing mappings.
	if sp, ok := rm.Remap(9); !ok || sp != 1 {
		t.Fatalf("existing mapping lost after exhaustion: (%d,%v)", sp, ok)
	}
	if !rm.IsRemapped(7) || rm.IsRemapped(11) {
		t.Fatal("IsRemapped wrong")
	}
	if got := rm.Rows(); !reflect.DeepEqual(got, []int{7, 9}) {
		t.Fatalf("Rows() = %v, want [7 9]", got)
	}
	if NewRemapTable(-3).Total() != 0 {
		t.Fatal("negative budget not clamped to zero")
	}
}

// TestBankStorePatrol checks the two concrete stores against a real bank: a
// healthy row reads OK, a decayed row classifies through the charge
// classifier, and Retire reaches the bank.
func TestBankStorePatrol(t *testing.T) {
	profile := &retention.BankProfile{
		Geom: bankGeom(4),
		// At the 64 ms read below, row 1's charge lands in the correctable
		// band (2^(-0.064/0.05) ~ 0.41) and row 2's is deep below the
		// correctable floor (2^(-0.064/0.005) ~ 1e-4).
		True:     []float64{10, 0.05, 0.005, 10},
		Profiled: []float64{10, 0.05, 0.005, 10},
	}
	bank, err := dram.NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewBankStore(bank, ecc.DefaultClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if store.Rows() != 4 {
		t.Fatalf("store rows %d", store.Rows())
	}
	res, err := store.PatrolRead(0, 0.064)
	if err != nil || res.Outcome != ecc.OK {
		t.Fatalf("healthy row: %+v err=%v", res, err)
	}
	res, err = store.PatrolRead(1, 0.064)
	if err != nil || res.Outcome != ecc.Corrected {
		t.Fatalf("sagging row: %+v err=%v", res, err)
	}
	res, err = store.PatrolRead(2, 0.064)
	if err != nil || res.Outcome != ecc.Uncorrectable {
		t.Fatalf("dead row: %+v err=%v", res, err)
	}
	// The patrol read restored row 1; an immediate re-read is clean.
	res, err = store.PatrolRead(1, 0.0641)
	if err != nil || res.Outcome != ecc.OK {
		t.Fatalf("restored row: %+v err=%v", res, err)
	}
	if err := store.Retire(2); err != nil {
		t.Fatal(err)
	}
	if got := bank.Retired(); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("bank retired %v, want [2]", got)
	}
	if _, err := NewBankStore(nil, ecc.DefaultClassifier()); err == nil {
		t.Fatal("NewBankStore accepted a nil bank")
	}
	if _, err := NewBankStore(bank, ecc.ChargeClassifier{SenseLimit: -1}); err == nil {
		t.Fatal("NewBankStore accepted an invalid classifier")
	}
}
