package main

import (
	"fmt"
	"sort"
	"strings"
)

// endToEnd lists the metrics an untraced run reports on every workload,
// with their units; BENCHMARK.json declares the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// suiteExperiments are the experiments timed one by one; the other ten of
// the registry each take under 30 ms and are reported together as
// exp.rest_ms.
var suiteExperiments = []string{
	"fig4", "tab1", "sec31", "perf", "abl-guardband", "abl-nbits", "abl-temp", "abl-density",
	"abl-rank", "abl-elastic", "abl-rankperf", "abl-salp", "abl-coverage", "resilience", "scrub", "profiling",
}

// perLayer lists the metrics a traced run reports on every workload, with
// their units. A layer the workload never calls reports 0.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, id := range suiteExperiments {
		add("ms", "exp."+id+"_ms")
	}
	add("ms", "exp.rest_ms", "retention.profile_ms", "core.restore_model_ms", "trace.generate_ms")
	add("count", "trace.records")
	add("ms", "core.sched_build_ms", "dram.bank_build_ms", "scenario.env_build_ms", "sim.run_ms")
	add("ns", "sim.ns_per_event")
	add("sim-count", "sim.refreshes", "sim.accesses")
	add("sim-fraction", "sim.partial_share")
	add("ms", "sim.scalar_ref_ms")
	add("ratio", "sim.over_scalar")
	add("ms", "fleet.campaign_ms")
	add("ratio", "fleet.attempts_per_shard")
	add("count", "fleet.retries", "fleet.hedges", "fleet.quarantined")
	add("ms", "serve.shard_rtt_p50_ms", "fleet.local_shard_p50_ms", "serve.start_ms", "trace.overhead_ms")
	return out
}()

// completeLayers fills every per-layer metric the workload did not measure
// with 0: that layer did no work on this workload.
func completeLayers(m metrics) metrics {
	out := metrics{}
	for _, l := range perLayer {
		if v, ok := m[l.name]; ok {
			out[l.name] = v
		} else {
			out.set(l.name, 0, l.unit)
		}
	}
	return out
}

// missingMetrics checks a result against the declared set: every declared
// metric present with its declared unit, and nothing else.
func missingMetrics(m metrics, traced bool) error {
	want := endToEnd
	if traced {
		want = perLayer
	}
	var problems []string
	seen := map[string]bool{}
	for _, w := range want {
		seen[w.name] = true
		got, ok := m[w.name]
		switch {
		case !ok:
			problems = append(problems, "missing "+w.name)
		case got.Unit != w.unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", w.name, got.Unit, w.unit))
		}
	}
	for name := range m {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("result metrics: %s", strings.Join(problems, "; "))
	}
	return nil
}
