package memctrl

import (
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/rank"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

const (
	mbBanks = 4
	mbRows  = 1024
)

func multiSetup(t *testing.T, mkKind string) ([]*dram.Bank, []core.Scheduler) {
	t.Helper()
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p *retention.BankProfile) (core.Scheduler, error) {
		switch mkKind {
		case "vrl":
			return core.NewVRL(p, core.Config{Restore: rm})
		default:
			return core.NewRAIDR(p, core.Config{Restore: rm})
		}
	}
	banks, scheds, err := rank.NewRank(mbBanks, retention.DefaultCellDistribution(), mbRows, 32, 17, mk)
	if err != nil {
		t.Fatal(err)
	}
	return banks, scheds
}

func multiOpts(g RefreshGranularity) Options {
	return Options{
		Timing:      DefaultTiming(),
		TCK:         device.Default90nm().TCK,
		Duration:    0.256,
		Granularity: g,
	}
}

func benchTraceReqs(t *testing.T) []Request {
	t.Helper()
	spec, err := trace.FindBenchmark("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(mbBanks*mbRows, 0.256, 5)
	if err != nil {
		t.Fatal(err)
	}
	return RequestsFromTrace(recs, device.Default90nm().TCK, mbBanks)
}

func TestMultiRequestsFromTrace(t *testing.T) {
	recs := []trace.Record{
		{Time: 1e-6, Op: trace.Read, Row: 7},
		{Time: 2e-6, Op: trace.Write, Row: 8},
	}
	reqs := RequestsFromTrace(recs, 1e-9, 4)
	if reqs[0].Bank != 3 || reqs[0].Row != 1 {
		t.Fatalf("row 7 should map to bank 3 row 1: %+v", reqs[0])
	}
	if reqs[1].Bank != 0 || reqs[1].Row != 2 || !reqs[1].Write {
		t.Fatalf("row 8 mapping: %+v", reqs[1])
	}
}

func TestGranularityString(t *testing.T) {
	if PerBankRefresh.String() != "per-bank" || AllBankRefresh.String() != "all-bank" {
		t.Fatal("names wrong")
	}
	if RefreshGranularity(9).String() == "" {
		t.Fatal("unknown granularity must stringify")
	}
}

func TestMultiValidation(t *testing.T) {
	banks, scheds := multiSetup(t, "raidr")
	if _, _, err := Run(nil, nil, nil, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("empty rank must be rejected")
	}
	if _, _, err := Run(banks, scheds[:1], nil, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("mismatched lengths must be rejected")
	}
	bad := multiOpts(PerBankRefresh)
	bad.TCK = 0
	if _, _, err := Run(banks, scheds, nil, bad); err == nil {
		t.Fatal("zero TCK must be rejected")
	}
	weird := multiOpts(RefreshGranularity(9))
	if _, _, err := Run(banks, scheds, nil, weird); err == nil {
		t.Fatal("unknown granularity must be rejected")
	}
	oob := []Request{{Arrival: 5, Bank: 99, Row: 0}}
	if _, _, err := Run(banks, scheds, oob, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("bad bank address must be rejected")
	}
	ooo := []Request{{Arrival: 5, Bank: 0, Row: 0}, {Arrival: 4, Bank: 0, Row: 0}}
	if _, _, err := Run(banks, scheds, ooo, multiOpts(PerBankRefresh)); err == nil {
		t.Fatal("out-of-order arrivals must be rejected")
	}
}

func TestMultiBankParallelism(t *testing.T) {
	// Two simultaneous requests to different banks overlap; to the same bank
	// they serialize.
	banks, scheds := multiSetup(t, "raidr")
	parallel := []Request{
		{Arrival: 1000, Bank: 0, Row: 10},
		{Arrival: 1000, Bank: 1, Row: 10},
	}
	_, servedP, err := Run(banks, scheds, parallel, multiOpts(PerBankRefresh))
	if err != nil {
		t.Fatal(err)
	}
	banks2, scheds2 := multiSetup(t, "raidr")
	serial := []Request{
		{Arrival: 1000, Bank: 0, Row: 10},
		{Arrival: 1000, Bank: 0, Row: 10},
	}
	_, servedS, err := Run(banks2, scheds2, serial, multiOpts(PerBankRefresh))
	if err != nil {
		t.Fatal(err)
	}
	if servedP[1].Latency() >= servedS[1].Latency() {
		t.Fatalf("bank parallelism missing: parallel %d vs serial %d",
			servedP[1].Latency(), servedS[1].Latency())
	}
}

func TestMultiPerBankVsAllBank(t *testing.T) {
	reqs := benchTraceReqs(t)
	run := func(g RefreshGranularity) Stats {
		banks, scheds := multiSetup(t, "raidr")
		st, _, err := Run(banks, scheds, reqs, multiOpts(g))
		if err != nil {
			t.Fatal(err)
		}
		if st.Violations != 0 {
			t.Fatalf("%s: violations %d", g, st.Violations)
		}
		return st
	}
	per := run(PerBankRefresh)
	all := run(AllBankRefresh)
	if per.Requests != all.Requests || per.Requests == 0 {
		t.Fatalf("request accounting: %d vs %d", per.Requests, all.Requests)
	}
	// All-bank refresh burns more aggregate bank-busy cycles and delivers
	// worse average latency.
	if all.RefreshBusyCycles <= per.RefreshBusyCycles {
		t.Fatalf("all-bank busy %d should exceed per-bank %d", all.RefreshBusyCycles, per.RefreshBusyCycles)
	}
	if all.AvgLatency < per.AvgLatency {
		t.Fatalf("all-bank latency %.2f should not beat per-bank %.2f", all.AvgLatency, per.AvgLatency)
	}
}

func TestMultiVRLBeatsRAIDR(t *testing.T) {
	reqs := benchTraceReqs(t)
	run := func(kind string) Stats {
		banks, scheds := multiSetup(t, kind)
		st, _, err := Run(banks, scheds, reqs, multiOpts(PerBankRefresh))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	raidr := run("raidr")
	vrl := run("vrl")
	if vrl.RefreshBusyCycles >= raidr.RefreshBusyCycles {
		t.Fatalf("VRL busy %d !< RAIDR %d", vrl.RefreshBusyCycles, raidr.RefreshBusyCycles)
	}
	if vrl.Violations != 0 {
		t.Fatal("VRL violations")
	}
}

func TestMultiDeterminism(t *testing.T) {
	reqs := benchTraceReqs(t)
	run := func() Stats {
		banks, scheds := multiSetup(t, "vrl")
		st, _, err := Run(banks, scheds, reqs, multiOpts(AllBankRefresh))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSALPValidation(t *testing.T) {
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: 512, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewRAIDR(prof, core.Config{Restore: rm})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Timing: DefaultTiming(), TCK: device.Default90nm().TCK, Duration: 0.128}
	for _, n := range []int{-1, 10000} {
		opts.Subarrays = n
		if _, _, err := run1(bank, sched, nil, opts); err == nil {
			t.Fatalf("subarray count %d must be rejected", n)
		}
	}
	opts.Subarrays = 4
	oob := []Request{{Arrival: 5, Row: 1 << 30}}
	if _, _, err := run1(bank, sched, oob, opts); err == nil {
		t.Fatal("out-of-range row must be rejected")
	}
}

func TestSALPHidesRefreshFromOtherSubarrays(t *testing.T) {
	// A request colliding with a refresh of ANOTHER subarray proceeds
	// unblocked; in the same subarray it waits.
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: 1024, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	mkSched := func() core.Scheduler {
		s, err := core.NewRAIDR(prof, core.Config{Restore: rm})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	const nSub = 8
	opts := Options{Timing: DefaultTiming(), TCK: device.Default90nm().TCK, Duration: 0.256, Subarrays: nSub}

	// Find the earliest refresh instant and its row.
	sched := mkSched()
	var firstCycle int64 = 1 << 62
	firstRow := -1
	for r := 0; r < prof.Geom.Rows; r++ {
		c := int64(core.StaggerFrac(r) * sched.Period(r) / opts.TCK)
		if c > 0 && c < firstCycle {
			firstCycle, firstRow = c, r
		}
	}
	rowsPerSub := prof.Geom.Rows / nSub
	sameSub := (firstRow / rowsPerSub) * rowsPerSub // another row in the refreshed subarray
	if sameSub == firstRow {
		sameSub++
	}
	otherSub := (firstRow/rowsPerSub + 1) % nSub * rowsPerSub

	run := func(row int) int64 {
		bank, err := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		st, served, err := run1(bank, mkSched(), []Request{{Arrival: firstCycle, Row: row}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Violations != 0 {
			t.Fatalf("violations: %d", st.Violations)
		}
		return served[0].Latency()
	}
	same := run(sameSub)
	other := run(otherSub)
	if other >= same {
		t.Fatalf("request to another subarray should dodge the refresh: same-sub %d vs other-sub %d", same, other)
	}
}

func TestSALPOneSubarrayMatchesRefreshAccounting(t *testing.T) {
	// One subarray must account the same refresh traffic as the default
	// single row buffer.
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := retention.NewSampledProfile(device.BankGeometry{Rows: 512, Cols: 32},
		retention.DefaultCellDistribution(), 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Timing: DefaultTiming(), TCK: device.Default90nm().TCK, Duration: 0.256}
	mk := func() core.Scheduler {
		s, err := core.NewVRL(prof, core.Config{Restore: rm})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bankA, _ := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	opts.Subarrays = 1
	salp, _, err := run1(bankA, mk(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	bankB, _ := dram.NewBank(prof, retention.ExpDecay{}, retention.PatternAllZeros)
	opts.Subarrays = 0
	plain, _, err := run1(bankB, mk(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if salp.RefreshCommands != plain.RefreshCommands || salp.RefreshBusyCycles != plain.RefreshBusyCycles {
		t.Fatalf("refresh accounting diverges: %d/%d vs %d/%d",
			salp.RefreshCommands, salp.RefreshBusyCycles, plain.RefreshCommands, plain.RefreshBusyCycles)
	}
}
