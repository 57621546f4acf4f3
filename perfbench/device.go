package main

import (
	"context"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

const (
	// hyperperiod is the RAIDR bin hyperperiod (64/128/192/256 ms bins).
	hyperperiod = 0.768
	// quietProfiles is how many retention profiles device-quiet cycles
	// its three schedulers over. A run's cost depends on the profile drawn,
	// so a cycle spans enough of them that runs at different seeds cost
	// alike.
	quietProfiles = 16
	secPerYear    = 365.25 * 24 * 3600
)

// quietSchedulers are the refresh-only policies device-quiet cycles.
var quietSchedulers = []string{"jedec", "raidr", "vrl"}

// activeScenarios are the stressed catalog entries device-active replays
// traces under: every catalog scenario except nominal.
var activeScenarios = []string{"diurnal", "vrt-storm", "dpd-adversary", "aging", "kitchen-sink"}

// deviceInput is one distinct device run: everything sim.Run receives.
type deviceInput struct {
	Key      string `json:"key"`
	Sched    string `json:"scheduler"`
	Profile  int    `json:"profile"`
	Trace    string `json:"trace,omitempty"`
	Records  int    `json:"records,omitempty"`
	Scenario string `json:"scenario"`
	EnvSeed  int64  `json:"env_seed,omitempty"`

	prof *retention.BankProfile
	recs []trace.Record
}

// deviceSetup is the state shared by every op of a device workload.
type deviceSetup struct {
	params  device.Params
	rm      core.RestoreModel
	window  float64
	inputs  []deviceInput
	records int // trace records generated
}

func quietSetup(c *config, rep int) (*deviceSetup, error) {
	op := setupOp(rep)
	s := &deviceSetup{params: device.Default90nm(), window: 4 * hyperperiod}
	profs := make([]*retention.BankProfile, quietProfiles)
	for p := range profs {
		id := c.tr.begin("retention.profile", 0, op)
		prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), scenario.StreamSeed(c.seed, fmt.Sprintf("quiet-profile-%d", p)))
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
		profs[p] = prof
	}
	if err := s.restoreModel(c, op); err != nil {
		return nil, err
	}
	for p, prof := range profs {
		for _, name := range quietSchedulers {
			s.inputs = append(s.inputs, deviceInput{
				Key: fmt.Sprintf("%s/p%d", name, p), Sched: name, Profile: p, Scenario: "none", prof: prof,
			})
		}
	}
	return s, nil
}

func activeSetup(c *config, rep int) (*deviceSetup, error) {
	op := setupOp(rep)
	s := &deviceSetup{params: device.Default90nm(), window: hyperperiod}
	id := c.tr.begin("retention.profile", 0, op)
	prof, err := retention.NewPaperProfile(retention.DefaultCellDistribution(), scenario.StreamSeed(c.seed, "active-profile"))
	c.tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := s.restoreModel(c, op); err != nil {
		return nil, err
	}
	specs := trace.PARSEC()
	recs := make([][]trace.Record, len(specs))
	for i, spec := range specs {
		id := c.tr.begin("trace.generate", 0, op)
		recs[i], err = spec.Generate(device.PaperBank.Rows, s.window, scenario.StreamSeed(c.seed, "trace-"+spec.Name))
		c.tr.end(id)
		if err != nil {
			return nil, err
		}
		s.records += len(recs[i])
	}
	// Input k replays trace k under scenario k mod 5: one cycle of 14 ops
	// replays every trace and applies every scenario at least twice.
	for k, spec := range specs {
		scn := activeScenarios[k%len(activeScenarios)]
		s.inputs = append(s.inputs, deviceInput{
			Key: spec.Name + "/" + scn, Sched: "vrl", Trace: spec.Name, Records: len(recs[k]),
			Scenario: scn, EnvSeed: scenario.StreamSeed(c.seed, "env-"+scn), prof: prof, recs: recs[k],
		})
	}
	return s, nil
}

func (s *deviceSetup) restoreModel(c *config, op int) error {
	id := c.tr.begin("core.restore_model", 0, op)
	rm, err := core.PaperRestoreModel(s.params, device.PaperBank)
	c.tr.end(id)
	s.rm = rm
	return err
}

// run performs one device run of in on the given backend, recording spans
// around scheduler, bank and environment construction and the simulation
// itself under parent.
func (s *deviceSetup) run(ctx context.Context, tr *tracer, in *deviceInput, backend sim.Backend, simSpan string, parent, op int) (sim.Stats, error) {
	id := tr.begin("core.sched_build", parent, op)
	sched, err := buildScheduler(in, s)
	tr.end(id)
	if err != nil {
		return sim.Stats{}, err
	}
	id = tr.begin("dram.bank_build", parent, op)
	bank, err := dram.NewBank(in.prof, retention.ExpDecay{}, retention.PatternAllZeros)
	tr.end(id)
	if err != nil {
		return sim.Stats{}, err
	}
	opts := sim.Options{Duration: s.window, TCK: s.params.TCK, Backend: backend}
	if in.Scenario != "none" {
		id = tr.begin("scenario.env_build", parent, op)
		env, err := scenario.BuildEnv(scenario.Ref{Name: in.Scenario}, s.window, in.EnvSeed)
		if err == nil {
			err = bank.SetModulator(env)
		}
		tr.end(id)
		if err != nil {
			return sim.Stats{}, err
		}
		opts.Scenario = env
	}
	var src trace.Source
	if in.recs != nil {
		src = trace.NewSliceSource(in.recs)
	}
	id = tr.begin(simSpan, parent, op)
	st, err := sim.RunContext(ctx, bank, sched, src, opts)
	tr.end(id)
	return st, err
}

func buildScheduler(in *deviceInput, s *deviceSetup) (core.Scheduler, error) {
	switch in.Sched {
	case "jedec":
		return core.NewJEDEC(s.params.TRetNom, s.rm)
	case "raidr":
		return core.NewRAIDR(in.prof, core.Config{Restore: s.rm})
	case "vrl":
		return core.NewVRL(in.prof, core.Config{Restore: s.rm})
	}
	return nil, fmt.Errorf("unknown scheduler %q", in.Sched)
}

func runDeviceQuiet(ctx context.Context, c *config) (*outcome, error) {
	return runDevice(ctx, c, setupReps, quietSetup)
}

func runDeviceActive(ctx context.Context, c *config) (*outcome, error) {
	// Generating the 14 traces takes most of a second, so fewer reps.
	return runDevice(ctx, c, 3, activeSetup)
}

// runDevice is the closed loop shared by both device workloads: op i runs
// input i mod len(inputs) on the default backend, then every distinct input
// is rerun once on the scalar reference backend, outside the timed loop,
// and each op's Stats must equal its input's reference Stats.
func runDevice(ctx context.Context, c *config, reps int, setup func(*config, int) (*deviceSetup, error)) (*outcome, error) {
	s, setupSecs, err := repeatSetup(reps, func(rep int) (*deviceSetup, error) { return setup(c, rep) }, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	var results []deviceOp
	smp, err := loop(c.budget, len(s.inputs), cpuClock, c.tr, nil, func(i int, tr *tracer) {
		in := i % len(s.inputs)
		id := tr.begin("op", 0, i)
		st, err := s.run(ctx, tr, &s.inputs[in], sim.BackendAuto, "sim.run", id, i)
		tr.end(id)
		results = append(results, deviceOp{in, st, err})
	})
	if err != nil {
		return nil, err
	}

	// Oracles: one scalar run per distinct input; the loop ran whole
	// cycles, so every input was reached.
	ref := make([]sim.Stats, len(s.inputs))
	refErr := make([]error, len(s.inputs))
	for in := range s.inputs {
		op := oracleOp(in)
		id := c.tr.begin("oracle", 0, op)
		ref[in], refErr[in] = s.run(ctx, c.tr, &s.inputs[in], sim.BackendScalar, "sim.scalar_ref", id, op)
		c.tr.end(id)
	}

	out := &outcome{attempted: len(results), info: map[string]any{}}
	for _, r := range results {
		if !deviceOpOK(r.st, r.err, ref[r.input], refErr[r.input]) {
			out.failed++
		}
	}
	commonFigures(out, setupSecs, smp.ms, len(s.inputs), median(smp.peakMiB), s.window/secPerYear)
	out.info["op_clock"] = "process CPU time"
	out.info["device"] = fmt.Sprintf("%dx%d bank, %.3f s simulated per run", device.PaperBank.Rows, device.PaperBank.Cols, s.window)
	out.info["inputs"] = s.inputs
	out.info["trace_records"] = s.records

	if c.tr != nil {
		out.layers = metrics{}
		deviceLayers(out, c.tr.snapshot(), s, results, ref)
		overhead(out, smp.ms, smp.traced, len(s.inputs))
	}
	return out, nil
}

// deviceOpOK is the device oracle: the op must succeed and its Stats must
// equal the scalar reference run's on the same input.
func deviceOpOK(st sim.Stats, err error, ref sim.Stats, refErr error) bool {
	return err == nil && refErr == nil && st == ref
}

// deviceOp is one timed op's outcome.
type deviceOp struct {
	input int
	st    sim.Stats
	err   error
}

// deviceLayers turns a traced device run's spans into per-layer metrics.
// Set-up layers are the median over set-up repetitions of their summed
// self time; per-op layers the median over traced ops; simulated counts
// come from the reference runs, one per distinct input, so they repeat
// exactly for a seed.
func deviceLayers(out *outcome, spans []span, s *deviceSetup, ops []deviceOp, ref []sim.Stats) {
	self := selfByOp(spans)
	isOp := func(op int) bool { return op >= 0 }
	setupMedian := func(name string) float64 { return medianOrZero(values(self[name], isSetupOp)) }
	opMedian := func(name string) float64 { return medianOrZero(values(self[name], isOp)) }
	out.layers.set("retention.profile_ms", setupMedian("retention.profile"), "ms")
	out.layers.set("core.restore_model_ms", setupMedian("core.restore_model"), "ms")
	out.layers.set("trace.generate_ms", setupMedian("trace.generate"), "ms")
	out.layers.set("trace.records", float64(s.records), "count")
	out.layers.set("core.sched_build_ms", opMedian("core.sched_build"), "ms")
	out.layers.set("dram.bank_build_ms", opMedian("dram.bank_build"), "ms")
	out.layers.set("scenario.env_build_ms", opMedian("scenario.env_build"), "ms")
	out.layers.set("sim.run_ms", opMedian("sim.run"), "ms")
	out.layers.set("sim.scalar_ref_ms", medianOrZero(values(self["sim.scalar_ref"], isOracleOp)), "ms")

	var nsPerEvent []float64
	runByInput := map[int][]float64{}
	for op, ms := range self["sim.run"] {
		st := ops[op].st
		if events := st.Refreshes() + st.Accesses; events > 0 {
			nsPerEvent = append(nsPerEvent, ms*1e6/float64(events))
		}
		runByInput[ops[op].input] = append(runByInput[ops[op].input], ms)
	}
	out.layers.set("sim.ns_per_event", medianOrZero(nsPerEvent), "ns")

	var ratios []float64
	for in, runs := range runByInput {
		if refMS, ok := self["sim.scalar_ref"][oracleOp(in)]; ok && refMS > 0 {
			ratios = append(ratios, median(runs)/refMS)
		}
	}
	out.layers.set("sim.over_scalar", medianOrZero(ratios), "ratio")
	out.info["over_scalar_inputs"] = len(ratios)

	var refreshes, partial, accesses int64
	for _, st := range ref {
		refreshes += st.Refreshes()
		partial += st.PartialRefreshes
		accesses += st.Accesses
	}
	n := float64(len(ref))
	out.layers.set("sim.refreshes", float64(refreshes)/n, "sim-count")
	out.layers.set("sim.accesses", float64(accesses)/n, "sim-count")
	share := 0.0
	if refreshes > 0 {
		share = float64(partial) / float64(refreshes)
	}
	out.layers.set("sim.partial_share", share, "sim-fraction")
}
