package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/trace"
)

// equivCase is one FuzzSimEquivalence input, decoded into a run
// configuration on top of the backend harness (profile, restore model,
// trace, seed and base options).
type equivCase struct {
	backendHarness
	policy   string
	scenario string
	cut      int // 0: no checkpoints; else resume from checkpoint cut-1 (mod count)
}

// equivOutcome is everything a run exposes: its Stats, its error, and its
// gob-encoded checkpoint stream.
type equivOutcome struct {
	stats Stats
	err   string
	blobs [][]byte
}

var equivPolicies = []string{"jedec", "raidr", "vrl", "vrl-access"}

// shortBins are the RAIDR bins with 4 ms, shorter than batchWindow, in
// place of 64 ms: a row re-pushed on it lands inside the batch still being
// applied, so the batched runner must merge it in (time, row) order. Every
// stock period is at least 32 ms, so only this draw reaches that merge.
var shortBins = []float64{4e-3, 128e-3, 192e-3, 256e-3}

func newEquivCase(t *testing.T, seed int64, rows, policy, nTrace, eccMode, scen, cut uint8) *equivCase {
	t.Helper()
	p := device.Default90nm()
	geom := device.BankGeometry{Rows: 1 + int(rows)%128, Cols: 8}
	prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	if eccMode&4 != 0 {
		// Weak rows: a fifth of the rows leak faster than profiled, so their
		// senses sag into the correctable band or below it and ECC (and
		// upgrade-on-correct) has work to do.
		for r := range prof.True {
			if rng.Intn(5) == 0 {
				prof.True[r] = prof.Profiled[r] * (0.4 + 0.5*rng.Float64())
			}
		}
	}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		t.Fatal(err)
	}
	c := &equivCase{
		backendHarness: backendHarness{
			geom:    geom,
			profile: prof,
			rm:      rm,
			seed:    seed,
			// Two laps of the slowest RAIDR bin.
			opts: Options{Duration: 0.512, TCK: p.TCK},
		},
		policy: equivPolicies[int(policy)%len(equivPolicies)],
		cut:    int(cut) % 8,
	}
	if policy/4%2 == 1 {
		c.bins = shortBins
	}
	if eccMode&1 != 0 {
		cls := ecc.DefaultClassifier()
		c.opts.ECC = &cls
		c.opts.UpgradeOnCorrect = eccMode&2 != 0
	}
	if names := scenario.Names(); scen%4 == 0 {
		c.scenario = names[int(scen/4)%len(names)]
	}
	// Sparse traces leave long quiet windows for the fast-forward engine;
	// dense ones keep the batch path busy. A few records fall outside the
	// bank or the run and must be skipped alike by every backend.
	c.recs = make([]trace.Record, int(nTrace)%64)
	for i := range c.recs {
		c.recs[i] = trace.Record{Time: rng.Float64() * c.opts.Duration * 1.1, Op: trace.Read, Row: rng.Intn(geom.Rows+2) - 1}
	}
	sort.Slice(c.recs, func(i, j int) bool { return c.recs[i].Time < c.recs[j].Time })
	return c
}

// run executes the case on one backend from a fresh bank, scheduler and
// scenario, resuming from resume when it is set.
func (c *equivCase) run(t *testing.T, backend Backend, resume *Checkpoint) equivOutcome {
	t.Helper()
	bank, err := dram.NewBank(c.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	opts := c.opts
	opts.Backend = backend
	opts.Resume = resume
	if c.scenario != "" {
		env, err := scenario.BuildEnv(scenario.Ref{Name: c.scenario}, opts.Duration, c.seed+3)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank.SetModulator(env); err != nil {
			t.Fatal(err)
		}
		opts.Scenario = env
	}
	var out equivOutcome
	if c.cut > 0 {
		opts.CheckpointEvery = opts.Duration / float64(1+c.cut)
		opts.CheckpointSink = func(cp *Checkpoint) error {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
				return err
			}
			out.blobs = append(out.blobs, buf.Bytes())
			return nil
		}
	}
	st, err := Run(bank, c.sched(t, c.policy), trace.NewSliceSource(c.recs), opts)
	out.stats = st
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// sameOutcome reports the first difference between two runs' outcomes.
func sameOutcome(a, b equivOutcome) error {
	if a.err != b.err {
		return fmt.Errorf("errors differ: %q vs %q", a.err, b.err)
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		return fmt.Errorf("stats differ:\n%+v\n%+v", a.stats, b.stats)
	}
	if len(a.blobs) != len(b.blobs) {
		return fmt.Errorf("checkpoint counts differ: %d vs %d", len(a.blobs), len(b.blobs))
	}
	for i := range a.blobs {
		if !bytes.Equal(a.blobs[i], b.blobs[i]) {
			return fmt.Errorf("checkpoint %d blobs differ", i)
		}
	}
	return nil
}

// FuzzSimEquivalence is the differential oracle over the simulator's
// backends: for a small random bank, policy, trace, ECC setting (with
// upgrade-on-correct, optionally over weak rows), stress scenario and
// checkpoint cadence, Batch and Auto (which fast-forwards whenever the run
// is eligible) must give the scalar reference's Stats, error and checkpoint
// blobs exactly. With a cut, every backend then resumes from the same
// checkpoint and must finish with the uninterrupted run's Stats.
func FuzzSimEquivalence(f *testing.F) {
	// seed, rows, policy (bit 2: shortBins), trace records, ecc bits (1
	// ECC, 2 upgrade, 4 weak rows), scenario selector, checkpoint cut.
	f.Add(int64(1), uint8(64), uint8(0), uint8(0), uint8(0), uint8(1), uint8(4))
	f.Add(int64(2), uint8(100), uint8(1), uint8(5), uint8(4), uint8(1), uint8(3))
	f.Add(int64(3), uint8(127), uint8(2), uint8(0), uint8(0), uint8(1), uint8(2))
	f.Add(int64(4), uint8(90), uint8(3), uint8(3), uint8(0), uint8(1), uint8(5))
	f.Add(int64(5), uint8(120), uint8(2), uint8(40), uint8(7), uint8(1), uint8(1))
	f.Add(int64(6), uint8(77), uint8(3), uint8(63), uint8(7), uint8(1), uint8(4))
	f.Add(int64(7), uint8(110), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Add(int64(8), uint8(60), uint8(3), uint8(20), uint8(5), uint8(8), uint8(6))
	f.Add(int64(9), uint8(0), uint8(1), uint8(1), uint8(6), uint8(12), uint8(7))
	f.Add(int64(10), uint8(127), uint8(2), uint8(1), uint8(7), uint8(1), uint8(3))
	f.Add(int64(11), uint8(127), uint8(3), uint8(8), uint8(7), uint8(16), uint8(2))
	f.Add(int64(12), uint8(127), uint8(2), uint8(2), uint8(4), uint8(20), uint8(5))
	f.Add(int64(2), uint8(127), uint8(2), uint8(1), uint8(7), uint8(1), uint8(3))
	f.Add(int64(5), uint8(127), uint8(2), uint8(4), uint8(0), uint8(1), uint8(3))
	f.Add(int64(13), uint8(127), uint8(6), uint8(0), uint8(0), uint8(1), uint8(0))
	f.Add(int64(159), uint8(127), uint8(7), uint8(30), uint8(7), uint8(1), uint8(3))
	f.Add(int64(1), uint8(127), uint8(5), uint8(5), uint8(0), uint8(4), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, rows, policy, nTrace, eccMode, scen, cut uint8) {
		c := newEquivCase(t, seed, rows, policy, nTrace, eccMode, scen, cut)
		ref := c.run(t, BackendScalar, nil)
		for _, b := range []Backend{BackendBatch, BackendAuto} {
			if err := sameOutcome(ref, c.run(t, b, nil)); err != nil {
				t.Fatalf("%s vs scalar: %v", b, err)
			}
		}
		if len(ref.blobs) == 0 {
			return
		}
		blob := ref.blobs[(c.cut-1)%len(ref.blobs)]
		c.cut = 0 // the resumed runs take no further checkpoints
		for _, b := range []Backend{BackendScalar, BackendBatch, BackendAuto} {
			var cp Checkpoint
			if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&cp); err != nil {
				t.Fatal(err)
			}
			got := c.run(t, b, &cp)
			got.blobs = ref.blobs
			if err := sameOutcome(ref, got); err != nil {
				t.Fatalf("%s resumed from t=%g vs uninterrupted scalar: %v", b, cp.Time, err)
			}
		}
	})
}
