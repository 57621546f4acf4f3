package memctrl

import (
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

type fixture struct {
	params  device.Params
	profile *retention.BankProfile
	rm      core.RestoreModel
	opts    Options
}

func setup(t *testing.T) *fixture {
	t.Helper()
	p := device.Default90nm()
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		params:  p,
		profile: prof,
		rm:      rm,
		opts:    Options{Timing: DefaultTiming(), TCK: p.TCK, Duration: 0.256},
	}
}

func (f *fixture) bank(t *testing.T) *dram.Bank {
	t.Helper()
	b, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// run1 runs the controller over a single bank.
func run1(b *dram.Bank, s core.Scheduler, reqs []Request, opts Options) (Stats, []Request, error) {
	return Run([]*dram.Bank{b}, []core.Scheduler{s}, reqs, opts)
}

func (f *fixture) sched(t *testing.T, mk func() (core.Scheduler, error)) core.Scheduler {
	t.Helper()
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTimingValidation(t *testing.T) {
	if err := DefaultTiming().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultTiming()
	bad.TRCD = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero TRCD must be rejected")
	}
	bad = DefaultTiming()
	bad.TRAS = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("TRAS < TRCD must be rejected")
	}
}

func TestRowHitVsMissLatency(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	tm := DefaultTiming()
	reqs := []Request{
		{Arrival: 1000, Row: 10}, // miss: ACT + CAS
		{Arrival: 1001, Row: 10}, // hit: CAS only
		{Arrival: 1002, Row: 11}, // conflict: PRE (after tRAS) + ACT + CAS
	}
	_, served, err := run1(f.bank(t), sched, reqs, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if served[0].RowHit {
		t.Fatal("first access to a row cannot be a hit")
	}
	if !served[1].RowHit {
		t.Fatal("second access to the open row must be a hit")
	}
	missLat := served[0].Finish - served[0].Start
	if want := int64(tm.TRCD + tm.TCL + tm.TBL); missLat != want {
		t.Fatalf("miss service time %d, want %d", missLat, want)
	}
	hitLat := served[1].Finish - served[1].Start
	if want := int64(tm.TCL + tm.TBL); hitLat != want {
		t.Fatalf("hit service time %d, want %d", hitLat, want)
	}
	// Conflict miss pays at least tRP more than a cold miss (unless a
	// refresh happened to close the row, which the tiny window rules out).
	conflict := served[2].Finish - served[2].Arrival
	if conflict < missLat+int64(tm.TRP) {
		t.Fatalf("row conflict latency %d too cheap (cold miss is %d)", conflict, missLat)
	}
}

func TestWritesPayRecovery(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	reqs := []Request{
		{Arrival: 1000, Row: 10, Write: false},
	}
	_, servedR, err := run1(f.bank(t), sched, reqs, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	reqs[0].Write = true
	_, servedW, err := run1(f.bank(t), sched, reqs, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if servedW[0].Latency() <= servedR[0].Latency() {
		t.Fatal("a write must cost at least tWR more than a read")
	}
}

func TestRefreshBlocksRequests(t *testing.T) {
	// A request arriving during a refresh of its bank waits out the tRFC:
	// construct a deterministic collision at a known refresh instant.
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	// Find the earliest scheduled refresh across rows.
	var firstCycle int64 = 1 << 62
	for r := 0; r < f.profile.Geom.Rows; r++ {
		c := int64(core.StaggerFrac(r) * sched.Period(r) / f.params.TCK)
		if c > 0 && c < firstCycle {
			firstCycle = c
		}
	}
	reqs := []Request{
		{Arrival: firstCycle, Row: 42},
		{Arrival: firstCycle + 1, Row: 43},
	}
	st, served, err := run1(f.bank(t), sched, reqs, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.StalledByRefresh == 0 {
		t.Fatal("requests colliding with the first refresh must be counted as stalled")
	}
	// The colliding request waits at least the refresh latency beyond a
	// quiet cold miss.
	tm := DefaultTiming()
	coldMiss := int64(tm.TRCD + tm.TCL + tm.TBL)
	if served[0].Latency() < coldMiss+int64(f.rm.FullCycles)-1 {
		t.Fatalf("collided latency %d does not include the refresh window", served[0].Latency())
	}
	if st.RefreshCommands == 0 || st.RefreshBusyCycles == 0 {
		t.Fatal("refreshes not accounted")
	}
	if st.Violations != 0 {
		t.Fatalf("violations: %d", st.Violations)
	}
}

func TestAggregateTraceRun(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(f.profile.Geom.Rows, f.opts.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := run1(f.bank(t), sched, RequestsFromTrace(recs, f.params.TCK, 1), f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.RefreshCommands == 0 || st.RefreshBusyCycles == 0 {
		t.Fatal("refreshes not accounted")
	}
	if st.Requests == 0 || st.AvgLatency <= 0 {
		t.Fatalf("request accounting broken: %+v", st)
	}
	if st.Violations != 0 {
		t.Fatalf("violations: %d", st.Violations)
	}
}

func TestVRLImprovesLatencyOverRAIDR(t *testing.T) {
	// The end-to-end point of the paper: shorter refreshes -> lower average
	// memory latency.
	f := setup(t)
	spec, err := trace.FindBenchmark("bgsave")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(f.profile.Geom.Rows, f.opts.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := RequestsFromTrace(recs, f.params.TCK, 1)

	run := func(mk func() (core.Scheduler, error)) Stats {
		st, _, err := run1(f.bank(t), f.sched(t, mk), reqs, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	cfg := core.Config{Restore: f.rm}
	raidr := run(func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, cfg) })
	va := run(func() (core.Scheduler, error) { return core.NewVRLAccess(f.profile, cfg) })
	if va.RefreshBusyCycles >= raidr.RefreshBusyCycles {
		t.Fatalf("VRL-Access busy %d !< RAIDR %d", va.RefreshBusyCycles, raidr.RefreshBusyCycles)
	}
	if va.AvgLatency > raidr.AvgLatency {
		t.Fatalf("VRL-Access avg latency %.2f worse than RAIDR %.2f", va.AvgLatency, raidr.AvgLatency)
	}
	if va.Violations != 0 || raidr.Violations != 0 {
		t.Fatal("violations in a safe configuration")
	}
}

func TestRunValidation(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	if _, _, err := run1(f.bank(t), sched, nil, Options{Timing: Timing{}, TCK: 1, Duration: 1}); err == nil {
		t.Fatal("bad timing must be rejected")
	}
	if _, _, err := run1(f.bank(t), sched, nil, Options{Timing: DefaultTiming(), TCK: 0, Duration: 1}); err == nil {
		t.Fatal("bad TCK must be rejected")
	}
	bad := []Request{{Arrival: 10, Row: 5}, {Arrival: 5, Row: 5}}
	if _, _, err := run1(f.bank(t), sched, bad, f.opts); err == nil {
		t.Fatal("out-of-order arrivals must be rejected")
	}
	oob := []Request{{Arrival: 10, Row: 1 << 30}}
	if _, _, err := run1(f.bank(t), sched, oob, f.opts); err == nil {
		t.Fatal("out-of-range row must be rejected")
	}
	early := []Request{{Arrival: -1, Row: 5}}
	if _, _, err := run1(f.bank(t), sched, early, f.opts); err == nil {
		t.Fatal("an arrival before cycle 0 must be rejected")
	}
}

func TestRequestsBeyondHorizonDropped(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	horizon := int64(f.opts.Duration / f.params.TCK)
	reqs := []Request{
		{Arrival: 100, Row: 1},
		{Arrival: horizon + 5, Row: 2},
	}
	st, served, err := run1(f.bank(t), sched, reqs, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || len(served) != 1 {
		t.Fatalf("requests = %d, want 1", st.Requests)
	}
}

func TestStatsAggregation(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	reqs := []Request{
		{Arrival: 1000, Row: 1},
		{Arrival: 1001, Row: 1, Write: true},
		{Arrival: 1002, Row: 1},
	}
	st, served, err := run1(f.bank(t), sched, reqs, f.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 || st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("%+v", st)
	}
	if st.RowHits != 2 {
		t.Fatalf("row hits = %d, want 2", st.RowHits)
	}
	if st.AvgLatency <= 0 || st.P95Latency <= 0 || st.MaxLatency < st.P95Latency {
		t.Fatalf("latency stats: %+v", st)
	}
	for _, r := range served {
		if r.Finish <= r.Arrival {
			t.Fatal("latency must be positive")
		}
	}
}

func TestRequestsFromTrace(t *testing.T) {
	tck := 1e-9
	recs := []trace.Record{
		{Time: 1e-6, Op: trace.Read, Row: 3},
		{Time: 2e-6, Op: trace.Write, Row: 4},
	}
	reqs := RequestsFromTrace(recs, tck, 1)
	if len(reqs) != 2 || reqs[0].Arrival != 1000 || !reqs[1].Write {
		t.Fatalf("%+v", reqs)
	}
}

func TestDeterminism(t *testing.T) {
	f := setup(t)
	spec, err := trace.FindBenchmark("vips")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(f.profile.Geom.Rows, f.opts.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqs := RequestsFromTrace(recs, f.params.TCK, 1)
	run := func() Stats {
		sched := f.sched(t, func() (core.Scheduler, error) {
			return core.NewVRLAccess(f.profile, core.Config{Restore: f.rm})
		})
		st, _, err := run1(f.bank(t), sched, reqs, f.opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestElasticRefreshPostponesBehindWork(t *testing.T) {
	// Elastic refresh only matters when requests queue behind refresh
	// traffic, so drive a saturating burst: arrivals every 5 cycles against
	// a ~26-cycle service time build a standing backlog that spans many
	// refresh instants.
	f := setup(t)
	var reqs []Request
	for i := 0; i < 20000; i++ {
		reqs = append(reqs, Request{Arrival: 1000 + int64(i)*5, Row: (i * 37) % f.profile.Geom.Rows})
	}
	run := func(slack float64) Stats {
		sched := f.sched(t, func() (core.Scheduler, error) {
			return core.NewRAIDR(f.profile, core.Config{Restore: f.rm})
		})
		opts := f.opts
		opts.ElasticSlack = slack
		st, _, err := run1(f.bank(t), sched, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	off := run(0)
	on := run(0.125)
	if on.RefreshesPostponed == 0 {
		t.Fatal("elastic refresh never postponed under a heavy trace")
	}
	if off.RefreshesPostponed != 0 {
		t.Fatal("disabled elasticity must not postpone")
	}
	if on.Violations != 0 {
		t.Fatalf("elastic postponement violated integrity: %d", on.Violations)
	}
	if on.RefreshCommands != off.RefreshCommands {
		t.Fatalf("postponement must not change the refresh count: %d vs %d", on.RefreshCommands, off.RefreshCommands)
	}
	if on.AvgLatency > off.AvgLatency {
		t.Fatalf("elastic refresh should not worsen average latency: %.3f vs %.3f", on.AvgLatency, off.AvgLatency)
	}
	if on.MaxLatency > off.MaxLatency {
		t.Fatalf("elastic refresh should not worsen tail latency: %d vs %d", on.MaxLatency, off.MaxLatency)
	}
}

func TestElasticSlackValidation(t *testing.T) {
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) })
	bad := f.opts
	bad.ElasticSlack = 0.9
	if _, _, err := run1(f.bank(t), sched, nil, bad); err == nil {
		t.Fatal("absurd slack must be rejected")
	}
	bad.ElasticSlack = -0.1
	if _, _, err := run1(f.bank(t), sched, nil, bad); err == nil {
		t.Fatal("negative slack must be rejected")
	}
	bad.ElasticSlack = 0.125
	bad.Granularity = AllBankRefresh
	if _, _, err := run1(f.bank(t), sched, nil, bad); err == nil {
		t.Fatal("elastic all-bank commands must be rejected")
	}
}

func TestElasticRefreshSafeUnderLoad(t *testing.T) {
	// Heavy trace + maximum slack: every refresh may be postponed, and the
	// guardband must still hold (no violations).
	f := setup(t)
	sched := f.sched(t, func() (core.Scheduler, error) { return core.NewVRL(f.profile, core.Config{Restore: f.rm}) })
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(f.profile.Geom.Rows, f.opts.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := f.opts
	opts.ElasticSlack = 0.125
	st, _, err := run1(f.bank(t), sched, RequestsFromTrace(recs, f.params.TCK, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("elastic VRL under load violated integrity: %d", st.Violations)
	}
}
