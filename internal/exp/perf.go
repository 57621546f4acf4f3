package exp

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/memctrl"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
	"vrldram/internal/tracecache"
)

// PerfImpact is the evaluation extension DESIGN.md calls out: it runs the
// command-level memory controller to turn refresh-overhead savings into
// end-performance numbers - the average memory request latency under each
// refresh policy, for a representative subset of the Figure 4 workloads.
// The paper motivates VRL-DRAM with exactly this effect (the bank is
// unavailable for tRFC out of every tREFI); this experiment quantifies it.
func PerfImpact(cfg Config) (*Result, error) {
	f, err := newFig4Setup(cfg)
	if err != nil {
		return nil, err
	}
	mopts := memctrl.Options{
		Timing:   memctrl.DefaultTiming(),
		TCK:      cfg.Params.TCK,
		Duration: cfg.Duration,
	}
	r := &Result{
		ID:    "perf",
		Title: "Memory request latency under each refresh policy (command-level controller)",
		Headers: []string{"benchmark", "scheduler", "avg lat (cyc)", "refresh delay (mcyc)",
			"max (cyc)", "refresh busy", "stalled reqs"},
	}
	benchNames := []string{"swaptions", "facesim", "streamcluster", "bgsave"}
	scfg := core.Config{Restore: f.rm}
	// Each benchmark is an independent cell (its own trace, its own four
	// controller runs); fan the benchmarks out on the worker pool and stitch
	// the per-benchmark row blocks back together in name order.
	blocks := make([][][]string, len(benchNames))
	err = forEachCell(cfg, len(benchNames), func(_ context.Context, bi int) error {
		name := benchNames[bi]
		spec, err := trace.FindBenchmark(name)
		if err != nil {
			return err
		}
		recs, err := tracecache.Records(spec, cfg.Geom.Rows, cfg.Duration, cfg.Seed)
		if err != nil {
			return err
		}
		reqs := memctrl.RequestsFromTrace(recs, cfg.Params.TCK, 1)

		run := func(mk func() (core.Scheduler, error)) (memctrl.Stats, error) {
			sched, err := mk()
			if err != nil {
				return memctrl.Stats{}, err
			}
			bank, err := dram.NewBank(f.profile, retention.ExpDecay{}, retention.PatternAllZeros)
			if err != nil {
				return memctrl.Stats{}, err
			}
			st, _, err := memctrl.Run([]*dram.Bank{bank}, []core.Scheduler{sched}, reqs, mopts)
			if err != nil {
				return memctrl.Stats{}, err
			}
			return st, nil
		}

		// No-refresh baseline: a nominal policy whose period exceeds the
		// simulated window, so no refresh ever fires. (Its charge tracker
		// would complain about the idle rows only if we swept them; the run
		// ends before the first refresh sensing, so the comparison is pure.)
		base, err := run(func() (core.Scheduler, error) { return core.NewJEDEC(10*cfg.Duration, f.rm) })
		if err != nil {
			return err
		}
		for _, mk := range []func() (core.Scheduler, error){
			func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, scfg) },
			func() (core.Scheduler, error) { return core.NewVRL(f.profile, scfg) },
			func() (core.Scheduler, error) { return core.NewVRLAccess(f.profile, scfg) },
		} {
			st, err := run(mk)
			if err != nil {
				return err
			}
			if st.Violations != 0 {
				return fmt.Errorf("exp: %s/%s: %d integrity violations", name, st.Scheduler, st.Violations)
			}
			// Refresh-induced delay in millicycles per request.
			delay := (st.AvgLatency - base.AvgLatency) * 1000
			blocks[bi] = append(blocks[bi], []string{name, st.Scheduler,
				fmt.Sprintf("%.2f", st.AvgLatency),
				fmt.Sprintf("%.1f", delay),
				fmt.Sprintf("%d", st.MaxLatency),
				fmt.Sprintf("%d", st.RefreshBusyCycles),
				fmt.Sprintf("%d", st.StalledByRefresh)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, block := range blocks {
		r.Rows = append(r.Rows, block...)
	}
	r.AddNote("'refresh delay' is the average latency added by refresh relative to a no-refresh baseline, in millicycles per request")
	r.AddNote("per-row refreshes make the average effect small (refresh overhead is <0.1%% of time at this granularity); the savings concentrate in the tail (max latency) and scale with chip density")
	r.AddNote("VRL and VRL-Access shrink the refresh-busy window, so fewer requests queue behind refreshes")
	return r, nil
}
