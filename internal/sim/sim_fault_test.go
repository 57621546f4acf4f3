package sim

import (
	"errors"
	"strings"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/guard"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

// TestSenseExactlyAtLimitIsNotAnError pins the >= / < boundary of the
// sensing comparison: a one-row bank refreshed at exactly its retention time
// with a perfect restore senses charge 2^-1 = 0.5 on every operation -
// exactly retention.SenseLimit - and must finish with zero violations and
// zero ECC-classified errors.
func TestSenseExactlyAtLimitIsNotAnError(t *testing.T) {
	f := setup(t)
	prof := &retention.BankProfile{
		Geom:     device.BankGeometry{Rows: 1, Cols: 32},
		True:     []float64{0.064},
		Profiled: []float64{0.064},
	}
	b, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	rm := f.rm
	rm.AlphaFull = 1 // perfect restore so every inter-refresh decay starts from full charge
	sched, err := core.NewJEDEC(0.064, rm)
	if err != nil {
		t.Fatal(err)
	}
	// Duration covers the refreshes at t = 0 and t = 0.064 only: a single
	// heap reschedule keeps the timestamp exact, so the sensed charge is
	// exactly math.Exp2(-1) = 0.5. Longer runs accumulate float error in the
	// event times and drift a ULP below the limit, which is not the boundary
	// under test.
	cls := ecc.DefaultClassifier()
	st, err := Run(b, sched, nil, Options{Duration: 0.096, TCK: f.params.TCK, ECC: &cls})
	if err != nil {
		t.Fatal(err)
	}
	if st.FullRefreshes == 0 {
		t.Fatal("no refreshes issued; the boundary was never exercised")
	}
	if st.Violations != 0 {
		t.Fatalf("charge exactly at the sensing limit recorded %d violations", st.Violations)
	}
	if st.CorrectedErrors != 0 || st.UncorrectableErrors != 0 {
		t.Fatalf("ECC classified %d/%d errors for charge at the limit",
			st.CorrectedErrors, st.UncorrectableErrors)
	}
}

// failingSource yields n good records and then a non-EOF error.
type failingSource struct {
	n    int
	errv error
}

func (s *failingSource) Next() (trace.Record, error) {
	if s.n <= 0 {
		return trace.Record{}, s.errv
	}
	s.n--
	rec := trace.Record{Time: float64(10-s.n) * 1e-3, Op: trace.Read, Row: s.n % 8}
	return rec, nil
}

// TestRunReturnsPartialStatsOnError: a mid-run failure must hand back the
// stats accumulated so far - accesses, refreshes, violations - not a zero
// Stats, so a failing run is still debuggable.
func TestRunReturnsPartialStatsOnError(t *testing.T) {
	f := setup(t)
	sched, err := core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("capture glitch")
	st, err := Run(f.bank(t, retention.PatternAllZeros), sched, &failingSource{n: 10, errv: boom}, f.opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if st.Accesses != 10 {
		t.Fatalf("partial stats report %d accesses, want the 10 delivered before the failure", st.Accesses)
	}
	if st.Scheduler == "" || st.Duration != f.opts.Duration {
		t.Fatal("partial stats lost their run identification")
	}
}

// TestOutOfOrderTraceRejected: a custom Source whose timestamps step
// backwards must be rejected with a clear error instead of silently
// mis-interleaving with the refresh schedule.
func TestOutOfOrderTraceRejected(t *testing.T) {
	f := setup(t)
	sched, err := core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	recs := []trace.Record{
		{Time: 0.010, Op: trace.Read, Row: 1},
		{Time: 0.020, Op: trace.Read, Row: 2},
		{Time: 0.015, Op: trace.Read, Row: 3}, // backwards
	}
	st, err := Run(f.bank(t, retention.PatternAllZeros), sched, trace.NewSliceSource(recs), f.opts)
	if err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error %q does not name the problem", err)
	}
	if st.Accesses != 2 {
		t.Fatalf("partial stats report %d accesses, want the 2 before the bad record", st.Accesses)
	}
}

// TestCorruptedTraceSurfacesInjectedReorder: the fault.TraceCorruptor's
// reordering is exactly what the out-of-order check exists to catch.
func TestCorruptedTraceSurfacesInjectedReorder(t *testing.T) {
	f := setup(t)
	sched, err := core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, 4000)
	for i := range recs {
		recs[i] = trace.Record{Time: float64(i) * 1e-4, Op: trace.Read, Row: i % f.profile.Geom.Rows}
	}
	src, err := fault.CorruptTrace(trace.NewSliceSource(recs), fault.DefaultTraceFaults(7))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(f.bank(t, retention.PatternAllZeros), sched, src, f.opts)
	if err == nil {
		t.Fatal("reordered records slipped through")
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error %q does not name the problem", err)
	}
}

// TestInjectionPopulatesAllCounters drives a guarded VRL stack through a
// refresh-fault campaign and asserts every counter added for the fault
// framework moves: faults injected, guard alarms, demotions, promotions and
// escalations.
func TestInjectionPopulatesAllCounters(t *testing.T) {
	f := setup(t)
	vrl, err := core.NewVRL(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	g, err := guard.New(vrl, f.profile.Geom.Rows, guard.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.InjectRefreshFaults(g, fault.RefreshFaults{Rate: 0.10, AlphaFactor: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(f.bank(t, retention.PatternAllZeros), inj, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsInjected == 0 {
		t.Fatal("FaultsInjected not surfaced in Stats")
	}
	if st.Guard.Alarms == 0 || st.Guard.Demotions == 0 {
		t.Fatalf("guard alarms/demotions not surfaced: %+v", st.Guard)
	}
	if st.Guard.Promotions == 0 {
		t.Fatalf("no promotions: probation never ends (%+v)", st.Guard)
	}
	if st.Guard.Escalations == 0 {
		t.Fatalf("no escalations at a 10%% fault rate (%+v)", st.Guard)
	}
	if st.Violations != 0 {
		t.Fatalf("guard lost data under the default-strength campaign: %d violations", st.Violations)
	}
}

// TestCatastrophicFaultTripsBreaker: a mass retention excursion the ladder
// cannot contain must trip the global circuit breaker and account the time
// spent degraded.
func TestCatastrophicFaultTripsBreaker(t *testing.T) {
	f := setup(t)
	vrl, err := core.NewVRL(f.profile, core.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	g, err := guard.New(vrl, f.profile.Geom.Rows, guard.Config{Restore: f.rm})
	if err != nil {
		t.Fatal(err)
	}
	// 30% of rows at quarter retention: the weakest victims fall below even
	// the 32 ms floor, which no refresh schedule can save.
	vrt, err := fault.TransientWeakCells(0.3, 0.25, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b := f.bank(t, retention.PatternAllZeros)
	if err := b.SetVRT(vrt); err != nil {
		t.Fatal(err)
	}
	st, err := Run(b, g, nil, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Guard.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", st.Guard)
	}
	if st.Guard.TimeDegraded <= 0 {
		t.Fatalf("degraded time not accounted: %+v", st.Guard)
	}
	if st.Violations == 0 {
		t.Fatal("physically unsavable rows still reported zero violations; the fault model is broken")
	}
}
