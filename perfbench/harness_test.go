package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"vrldram/internal/exp"
	"vrldram/internal/fleet"
	"vrldram/internal/sim"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	// 99 samples: p90 is the 90th value, 9 lie beyond it.
	if v, ok := percentile(xs(99), 0.9); ok {
		t.Fatalf("p90 of 99 samples reported %g; want refusal", v)
	}
	// 100 samples: p90 is the 90th value, 10 lie beyond it.
	v, ok := percentile(xs(100), 0.9)
	if !ok || v != 90 {
		t.Fatalf("p90 of 100 samples = %g, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %g, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of no samples is not NaN")
	}
}

func suiteFixture() []*exp.Result {
	return []*exp.Result{
		{ID: "tab1", Title: "t", Headers: []string{"config", "SPICE time", "model"}, Rows: [][]string{{"a", "1.2ms", "0.5"}}, Notes: []string{"n"}},
		{ID: "fig4", Title: "f", Headers: []string{"bench", "overhead"}, Rows: [][]string{{"x", "3%"}}},
	}
}

func TestSuiteDigestMasksOnlyTimeColumns(t *testing.T) {
	base := suiteDigest(suiteFixture())
	r := suiteFixture()
	r[0].Rows[0][1] = "9.9ms"
	if suiteDigest(r) != base {
		t.Fatal("a changed \" time\" cell changed the digest")
	}
	perturb := map[string]func([]*exp.Result){
		"row cell":  func(r []*exp.Result) { r[0].Rows[0][2] = "0.6" },
		"other exp": func(r []*exp.Result) { r[1].Rows[0][1] = "4%" },
		"note":      func(r []*exp.Result) { r[0].Notes[0] = "m" },
		"header":    func(r []*exp.Result) { r[1].Headers[1] = "cost" },
		"title":     func(r []*exp.Result) { r[1].Title = "g" },
		"extra row": func(r []*exp.Result) { r[1].Rows = append(r[1].Rows, []string{"y", "1%"}) },
	}
	for name, p := range perturb {
		r := suiteFixture()
		p(r)
		if suiteDigest(r) == base {
			t.Errorf("changed %s left the digest unchanged", name)
		}
	}
}

func TestPerturbedStatsFailTheOp(t *testing.T) {
	ref := sim.Stats{Scheduler: "vrl", Duration: 0.768, FullRefreshes: 100, PartialRefreshes: 50, ChargeRestored: 12.5}
	if !deviceOpOK(ref, nil, ref, nil) {
		t.Fatal("identical Stats failed the op")
	}
	perturbed := []func(*sim.Stats){
		func(s *sim.Stats) { s.FullRefreshes++ },
		func(s *sim.Stats) { s.ChargeRestored = math.Nextafter(s.ChargeRestored, 20) },
		func(s *sim.Stats) { s.Violations = 1 },
		func(s *sim.Stats) { s.Scrub.Corrected = 1 },
	}
	for i, p := range perturbed {
		st := ref
		p(&st)
		if deviceOpOK(st, nil, ref, nil) {
			t.Errorf("perturbation %d passed the oracle", i)
		}
	}
	if deviceOpOK(ref, context.Canceled, ref, nil) {
		t.Error("an op that errored passed")
	}
}

func TestPerturbedFleetReportFailsTheOp(t *testing.T) {
	spec := fleet.Spec{Devices: 4, Rows: 256, Duration: 0.256, ShardSize: 2, Seed: 3}
	run := func() *fleet.Report {
		rep, err := fleet.Run(context.Background(), spec, []fleet.Executor{fleet.NewLocalExecutor(1)}, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	ref := reportDigest(run())
	rep := run()
	rep.Attempts += 3 // dispatch counters are not part of the output
	rep.Retries += 3
	if !fleetOpOK(rep, nil, ref) {
		t.Fatal("a report differing only in dispatch counters failed")
	}
	rep = run()
	rep.Sum.FullRefreshes++
	if fleetOpOK(rep, nil, ref) {
		t.Error("a perturbed summary passed the oracle")
	}
	rep = run()
	rep.Quarantined = []fleet.Quarantine{{Shard: 1, Count: 2}}
	rep.ShardsDone--
	if fleetOpOK(rep, nil, ref) {
		t.Error("a campaign that quarantined a shard passed")
	}
}

func TestSelfTimeMergesConcurrentChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", Op: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard", Op: 0, Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "shard", Op: 0, Start: 20, End: 70},  // overlaps span 2
		{ID: 4, Parent: 1, Name: "shard", Op: 0, Start: 90, End: 120}, // runs past the parent
	}
	self := selfByOp(spans)
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got := self["campaign"][0] * 1e6; !near(got, 30) { // 100 - (60 covered + 10 covered)
		t.Fatalf("campaign self time = %gns, want 30ns", got)
	}
	if got := self["shard"][0] * 1e6; !near(got, 50+50+30) {
		t.Fatalf("shard self time = %gns, want 130ns", got)
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the
// metrics the binary reports in step.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the binary reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the binary reports %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	for _, m := range []metrics{completeLayers(metrics{}), {"setup_s": {1, "s"}, "run_ms": {1, "ms"}, "peak_rss_mb": {1, "MiB"}}} {
		if err := missingMetrics(m, len(m) != len(endToEnd)); err != nil {
			t.Error(err)
		}
	}
}

func TestLoopRunsWholeCyclesAndTracesEveryInput(t *testing.T) {
	for _, cycle := range []int{1, 12, 14, 15} {
		smp, err := loop(0, cycle, wallClock, newTracer(), nil, func(int, *tracer) {})
		if err != nil || len(smp.ms) != cycle || len(smp.peakMiB) != 1 || smp.peakMiB[0] <= 0 {
			t.Fatalf("cycle %d: %d ops, peaks %v, err %v; want one whole cycle and its peak", cycle, len(smp.ms), smp.peakMiB, err)
		}
		// Over two cycles every input has a traced and an untraced op.
		for in := 0; in < cycle; in++ {
			a, b := tracedOp(in, cycle), tracedOp(in+cycle, cycle)
			if cycle > 1 && a == b {
				t.Errorf("cycle %d: input %d traced=%v in both cycles", cycle, in, a)
			}
		}
	}
	if tracedOp(0, 1) || !tracedOp(1, 1) || tracedOp(2, 1) {
		t.Error("with one input per cycle, odd ops are not the traced ones")
	}
}
