package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
)

// newFFHarness builds the backend harness with ECC classification off - the
// one static ineligibility the matrix would otherwise pin every run to, so
// the fast-forward engine can actually engage. Everything else (trace,
// checkpoints, scenarios, scrub) stays: those are per-window horizon caps,
// and the equivalence must hold across all of them.
func newFFHarness(t *testing.T, seed int64) *backendHarness {
	t.Helper()
	h := newBackendHarness(t, seed)
	h.opts.ECC = nil
	return h
}

// compareFF runs the same configuration on the scalar reference and the
// fast-forward backend and demands bit-identical Stats and bit-identical
// serialized checkpoints.
func (h *backendHarness) compareFF(t *testing.T, schedName, scenName string, withScrub bool) {
	t.Helper()
	scalarStats, scalarBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendScalar)
	ffStats, ffBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendFastForward)
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}
	if len(scalarBlobs) != len(ffBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(ffBlobs))
	}
	if len(scalarBlobs) == 0 {
		t.Fatal("run produced no checkpoints; the blob comparison is vacuous")
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], ffBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged between backends", i)
		}
	}
}

// TestFastForwardMatchesScalarFullRuns is the keystone equivalence property
// of the fast-forward engine: across all four schedulers, scrub on and off,
// and every catalog scenario (plus the bare bank), a run on the fast-forward
// backend must produce bit-identical Stats and bit-identical serialized
// checkpoints to the same run on the scalar reference. Windows the engine
// cannot take (a scenario off nominal, a trace record close ahead) run on
// the batch path - equivalence must hold either way.
func TestFastForwardMatchesScalarFullRuns(t *testing.T) {
	h := newFFHarness(t, 7)
	scens := append([]string{""}, scenario.Names()...)
	for _, schedName := range []string{"jedec", "raidr", "vrl", "vrl-access"} {
		for _, withScrub := range []bool{false, true} {
			for _, scen := range scens {
				label := scen
				if label == "" {
					label = "bare"
				}
				t.Run(fmt.Sprintf("%s/scrub=%v/%s", schedName, withScrub, label), func(t *testing.T) {
					h.compareFF(t, schedName, scen, withScrub)
				})
			}
		}
	}
}

// TestFastForwardMatchesScalarSecondSeed re-runs a slice of the matrix on a
// different profile seed, so the equivalence does not hinge on one retention
// draw.
func TestFastForwardMatchesScalarSecondSeed(t *testing.T) {
	h := newFFHarness(t, 21)
	for _, withScrub := range []bool{false, true} {
		for _, scen := range []string{"", "kitchen-sink"} {
			label := scen
			if label == "" {
				label = "bare"
			}
			t.Run(fmt.Sprintf("vrl/scrub=%v/%s", withScrub, label), func(t *testing.T) {
				h.compareFF(t, "vrl", scen, withScrub)
			})
		}
	}
}

// TestFastForwardFallsBackUnderECC pins the static-ineligibility path: with
// ECC classification on, an explicit BackendFastForward request must quietly
// run the plain batched path and still match the scalar reference bit for
// bit.
func TestFastForwardFallsBackUnderECC(t *testing.T) {
	h := newBackendHarness(t, 7) // keeps ECC set
	scalarStats, scalarBlobs := h.runOnce(t, "vrl", "", false, BackendScalar)
	ffStats, ffBlobs := h.runOnce(t, "vrl", "", false, BackendFastForward)
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("stats diverged under ECC:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}
	if len(scalarBlobs) == 0 || len(scalarBlobs) != len(ffBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(ffBlobs))
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], ffBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged under ECC", i)
		}
	}
}

// ffQuietRun executes one trace-free, scrub-free run - the steady-state
// shape the engine is built for - and returns the stats plus the number of
// fast-forward windows the run consumed.
func ffQuietRun(t *testing.T, h *backendHarness, backend Backend, opts Options) (Stats, int) {
	t.Helper()
	bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = backend
	r := NewReusable(h.geom.Rows)
	st, err := r.Run(bank, h.sched(t, "vrl"), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, r.scratch.ffWindows
}

// TestFastForwardEngagesOnQuietRun asserts the engine actually fires on its
// target workload - a quiescent VRL run - rather than the equivalence matrix
// passing because fast-forward never engaged, and that the fast-forwarded
// run still matches the scalar reference exactly.
func TestFastForwardEngagesOnQuietRun(t *testing.T) {
	h := newFFHarness(t, 7)
	opts := Options{Duration: 4 * 0.768, TCK: h.opts.TCK}
	scalarStats, _ := ffQuietRun(t, h, BackendScalar, opts)
	ffStats, windows := ffQuietRun(t, h, BackendFastForward, opts)
	if windows == 0 {
		t.Fatal("fast-forward engine never engaged on a quiet steady-state run")
	}
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}
}

// TestFastForwardMidSkipResume pins checkpoint/resume bit-identity through
// fast-forwarded regions: checkpoints taken by a fast-forwarding run land on
// horizon boundaries inside what would otherwise be one long skip, and
// resuming from each of them - on either backend - must reproduce the
// remainder of the run exactly.
func TestFastForwardMidSkipResume(t *testing.T) {
	h := newFFHarness(t, 7)
	base := Options{Duration: 4 * 0.768, TCK: h.opts.TCK}

	// Reference run with checkpoints: quiet, so every checkpoint boundary
	// splits a fast-forward span.
	var blobs [][]byte
	opts := base
	opts.CheckpointEvery = base.Duration / 5
	opts.CheckpointSink = func(cp *Checkpoint) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			return err
		}
		blobs = append(blobs, buf.Bytes())
		return nil
	}
	ffStats, windows := ffQuietRun(t, h, BackendFastForward, opts)
	if windows == 0 {
		t.Fatal("checkpointed run never fast-forwarded; resume test is vacuous")
	}
	if len(blobs) == 0 {
		t.Fatal("run produced no checkpoints")
	}
	scalarStats, _ := ffQuietRun(t, h, BackendScalar, opts)
	if !reflect.DeepEqual(scalarStats, ffStats) {
		t.Fatalf("checkpointed stats diverged:\nscalar:       %+v\nfast-forward: %+v", scalarStats, ffStats)
	}

	for i, blob := range blobs {
		var cp Checkpoint
		if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&cp); err != nil {
			t.Fatal(err)
		}
		resume := base
		resume.Resume = &cp
		var scalarTail, ffTail Stats
		for _, backend := range []Backend{BackendScalar, BackendFastForward} {
			bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
			if err != nil {
				t.Fatal(err)
			}
			opts := resume
			opts.Backend = backend
			st, err := Run(bank, h.sched(t, "vrl"), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if backend == BackendScalar {
				scalarTail = st
			} else {
				ffTail = st
			}
		}
		if !reflect.DeepEqual(scalarTail, ffTail) {
			t.Fatalf("resume from checkpoint %d diverged:\nscalar:       %+v\nfast-forward: %+v", i, scalarTail, ffTail)
		}
	}
}

// TestFFPlanProperties spot-checks the planner arithmetic the fuzz target
// hammers, on a deterministic grid (the fuzz corpus seeds mirror these).
func TestFFPlanProperties(t *testing.T) {
	f := func(t0, period, horizon float64) bool {
		return checkFFPlan(t0, period, horizon)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// checkFFPlan verifies the planner invariants for one input triple: the skip
// count is never negative, a planned skip never lands an event at or past
// the horizon, the plan is maximal (one more lap would cross), and the
// horizon composition returns the minimum of its caps.
func checkFFPlan(t0, period, horizon float64) bool {
	k := dram.LapsBelow(t0, period, horizon)
	if k < 0 {
		return false
	}
	if k > 0 {
		if !(t0+float64(k)*period < horizon) {
			return false
		}
	}
	if k < dram.MaxLaps && period > 0 && t0 < horizon {
		// Maximality: the next lap must not also fit (MaxLaps saturates).
		if t0+float64(k+1)*period < horizon {
			return false
		}
	}
	h := ffHorizon(horizon, t0, period, horizon)
	min := horizon
	for _, v := range []float64{t0, period, horizon} {
		if v < min {
			min = v
		}
	}
	if h != min && !(math.IsNaN(h) && math.IsNaN(min)) {
		return false
	}
	return true
}

// FuzzFastForwardPlan fuzzes the fast-forward planner: for arbitrary
// (start, period, horizon) triples - including NaNs, infinities, negatives,
// and denormals - the skip count must be non-negative, never plan an event
// at or past the horizon, and be maximal; the horizon composition must be
// the minimum of its caps.
func FuzzFastForwardPlan(f *testing.F) {
	f.Add(0.0, 64e-3, 0.768)
	f.Add(0.7679, 64e-3, 0.768)
	f.Add(0.0, 0.0, 1.0)
	f.Add(1.0, math.SmallestNonzeroFloat64, 1.0000000001)
	f.Add(-1e300, 1e-300, 1e300)
	f.Add(math.NaN(), 64e-3, 0.768)
	f.Add(0.0, math.NaN(), 0.768)
	f.Add(0.0, 64e-3, math.NaN())
	f.Add(0.0, math.Inf(1), math.Inf(1))
	f.Fuzz(func(t *testing.T, t0, period, horizon float64) {
		if !checkFFPlan(t0, period, horizon) {
			t.Fatalf("plan invariant violated for t=%g period=%g horizon=%g (skip=%d)",
				t0, period, horizon, dram.LapsBelow(t0, period, horizon))
		}
	})
}
