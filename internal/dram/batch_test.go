package dram

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

// hyperbolicDecay is a decay law that is neither exponential nor linear,
// so a bank using it takes the kernels' generic Decay.Factor column path:
// v(dt) = v0 / (1 + dt/tret), which also halves the charge at dt = tret.
type hyperbolicDecay struct{}

func (hyperbolicDecay) Factor(dt, tret float64) float64 {
	if dt <= 0 {
		return 1
	}
	if tret <= 0 {
		return 0
	}
	return 1 / (1 + dt/tret)
}

func (hyperbolicDecay) Name() string { return "hyperbolic" }

func newBankDecay(t *testing.T, decay retention.DecayModel) *Bank {
	t.Helper()
	b, err := NewBank(smallProfile(t), decay, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomBatch draws a valid batch: distinct rows in strictly increasing
// (time, row) order starting at or after t0, with alphas in [0, 1]. Low
// alphas and generous time steps push charges below the sensing limit, so
// the violation paths get real coverage.
func randomBatch(rng *rand.Rand, rows int, t0 float64) ([]BatchOp, float64) {
	k := 1 + rng.Intn(rows)
	perm := rng.Perm(rows)[:k]
	ops := make([]BatchOp, k)
	t := t0
	for i, r := range perm {
		if i == 0 || rng.Intn(3) > 0 {
			t += rng.Float64() * 0.3
		}
		ops[i] = BatchOp{Row: r, Time: t, Alpha: rng.Float64()}
	}
	// Shared times need rows increasing to satisfy the (time, row) order.
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Time != ops[j].Time {
			return ops[i].Time < ops[j].Time
		}
		return ops[i].Row < ops[j].Row
	})
	return ops, t
}

// TestRefreshBatchMatchesSequential is the package-level bit-identity
// property: RefreshBatch must leave the bank in exactly the state a
// sequential Refresh loop would - same charge and lastT columns, same
// violations in the same order, same per-op results - across decay models
// (covering the memoized exponential, the linear, and the generic columnar
// kernels).
func TestRefreshBatchMatchesSequential(t *testing.T) {
	decays := []retention.DecayModel{retention.ExpDecay{}, retention.LinearDecay{}, hyperbolicDecay{}}
	for _, decay := range decays {
		t.Run(decay.Name(), func(t *testing.T) {
			batched := newBankDecay(t, decay)
			scalar := newBankDecay(t, decay)
			rng := rand.New(rand.NewSource(3))
			tNow := 0.0
			for round := 0; round < 200; round++ {
				var ops []BatchOp
				ops, tNow = randomBatch(rng, batched.Geom.Rows, tNow)
				gotRes := make([]RefreshResult, len(ops))
				if err := batched.RefreshBatch(ops, gotRes); err != nil {
					t.Fatalf("round %d: RefreshBatch: %v", round, err)
				}
				for i, op := range ops {
					wantRes, err := scalar.Refresh(op.Row, op.Time, op.Alpha)
					if err != nil {
						t.Fatalf("round %d: Refresh: %v", round, err)
					}
					if gotRes[i] != wantRes {
						t.Fatalf("round %d op %d: result %+v, want %+v", round, i, gotRes[i], wantRes)
					}
				}
			}
			if !reflect.DeepEqual(batched.State(), scalar.State()) {
				t.Fatal("batched and sequential bank states diverged")
			}
			if len(batched.Violations()) == 0 {
				t.Fatal("vacuous: workload produced no violations")
			}
		})
	}
}

// TestChargeAtBatchMatchesScalar: the read-only batch kernel must agree with
// ChargeAt bit for bit on every decay path, including repeated rows.
func TestChargeAtBatchMatchesScalar(t *testing.T) {
	for _, decay := range []retention.DecayModel{retention.ExpDecay{}, retention.LinearDecay{}, hyperbolicDecay{}} {
		t.Run(decay.Name(), func(t *testing.T) {
			b := newBankDecay(t, decay)
			rng := rand.New(rand.NewSource(9))
			// Scatter the lastT column first so dt varies per row.
			for r := 0; r < b.Geom.Rows; r++ {
				if _, err := b.Refresh(r, rng.Float64()*0.1, 1); err != nil {
					t.Fatal(err)
				}
			}
			n := 300
			rows := make([]int, n)
			times := make([]float64, n)
			out := make([]float64, n)
			for i := range rows {
				rows[i] = rng.Intn(b.Geom.Rows)
				times[i] = 0.1 + rng.Float64()*2
			}
			if err := b.ChargeAtBatch(rows, times, out); err != nil {
				t.Fatal(err)
			}
			for i := range rows {
				want, err := b.ChargeAt(rows[i], times[i])
				if err != nil {
					t.Fatal(err)
				}
				if out[i] != want {
					t.Fatalf("op %d: ChargeAtBatch %.17g, ChargeAt %.17g", i, out[i], want)
				}
			}
		})
	}
}

// TestRefreshBatchValidation: every malformed batch is rejected before any
// mutation - charge, lastT, and violations must be exactly what they were.
func TestRefreshBatchValidation(t *testing.T) {
	cases := []struct {
		name string
		ops  []BatchOp
	}{
		{"row-negative", []BatchOp{{Row: -1, Time: 0.1, Alpha: 1}}},
		{"row-high", []BatchOp{{Row: 16, Time: 0.1, Alpha: 1}}},
		{"alpha-negative", []BatchOp{{Row: 1, Time: 0.1, Alpha: -0.1}}},
		{"alpha-high", []BatchOp{{Row: 1, Time: 0.1, Alpha: 1.1}}},
		{"alpha-nan", []BatchOp{{Row: 1, Time: 0.1, Alpha: math.NaN()}}},
		{"duplicate-row", []BatchOp{{Row: 3, Time: 0.1, Alpha: 1}, {Row: 3, Time: 0.2, Alpha: 1}}},
		{"time-reversed", []BatchOp{{Row: 1, Time: 0.2, Alpha: 1}, {Row: 2, Time: 0.1, Alpha: 1}}},
		{"tie-row-reversed", []BatchOp{{Row: 2, Time: 0.1, Alpha: 1}, {Row: 1, Time: 0.1, Alpha: 1}}},
		{"tie-row-equal", []BatchOp{{Row: 2, Time: 0.1, Alpha: 1}, {Row: 2, Time: 0.1, Alpha: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBank(t)
			pre := b.State()
			if err := b.RefreshBatch(tc.ops, nil); err == nil {
				t.Fatal("invalid batch accepted")
			}
			if !reflect.DeepEqual(b.State(), pre) {
				t.Fatal("rejected batch mutated the bank")
			}
		})
	}

	b := newBank(t)
	if _, err := b.Refresh(4, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	pre := b.State()
	if err := b.RefreshBatch([]BatchOp{{Row: 4, Time: 0.5, Alpha: 1}}, nil); err == nil {
		t.Fatal("batch preceding a row's last restore accepted")
	}
	if !reflect.DeepEqual(b.State(), pre) {
		t.Fatal("rejected batch mutated the bank")
	}
	if err := b.RefreshBatch([]BatchOp{{Row: 1, Time: 2, Alpha: 1}}, make([]RefreshResult, 2)); err == nil {
		t.Fatal("mismatched results length accepted")
	}
}

func TestRestoreSensedValidation(t *testing.T) {
	b := newBank(t)
	if _, err := b.RestoreSensed(-1, 0.1, 1, 0.9); err == nil {
		t.Fatal("negative row accepted")
	}
	if _, err := b.RestoreSensed(b.Geom.Rows, 0.1, 1, 0.9); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := b.RestoreSensed(1, 0.1, 1.5, 0.9); err == nil {
		t.Fatal("alpha above 1 accepted")
	}
	if _, err := b.RestoreSensed(1, 0.1, -0.5, 0.9); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

// FuzzRefreshBatch decodes arbitrary bytes into a batch - rows, time deltas,
// and alphas all allowed to go invalid - and checks the RefreshBatch
// contract both ways: a rejected batch mutates nothing, and an accepted one
// is bit-identical to the sequential Refresh loop.
func FuzzRefreshBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 16, 200, 5, 16, 200}) // two valid ops
	f.Add([]byte{3, 16, 200, 3, 16, 200}) // duplicate row
	f.Add([]byte{200, 16, 200})           // row out of range
	f.Add([]byte{3, 16, 255, 4, 0, 255})  // time tie, rows increasing
	f.Add([]byte{4, 16, 200, 3, 0, 200})  // time tie, rows decreasing
	f.Add([]byte{3, 0x90, 200})           // negative time delta
	f.Add([]byte{3, 16, 0xF0})            // alpha out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		batched, err := NewBank(fuzzProfile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewBank(fuzzProfile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		ops := make([]BatchOp, 0, len(data)/3)
		tNow := 0.0
		for i := 0; i+2 < len(data); i += 3 {
			// Row byte may exceed the 16-row bank; the signed delta byte may
			// step time backwards; the signed alpha byte may leave [0, 1].
			tNow += float64(int8(data[i+1])) / 64
			ops = append(ops, BatchOp{
				Row:   int(data[i]),
				Time:  tNow,
				Alpha: float64(int8(data[i+2])) / 100,
			})
		}
		pre := batched.State()
		results := make([]RefreshResult, len(ops))
		if err := batched.RefreshBatch(ops, results); err != nil {
			if !reflect.DeepEqual(batched.State(), pre) {
				t.Fatal("rejected batch mutated the bank")
			}
			return
		}
		for i, op := range ops {
			want, err := scalar.Refresh(op.Row, op.Time, op.Alpha)
			if err != nil {
				t.Fatalf("sequential replay of an accepted batch failed at op %d: %v", i, err)
			}
			if results[i] != want {
				t.Fatalf("op %d: result %+v, want %+v", i, results[i], want)
			}
		}
		if !reflect.DeepEqual(batched.State(), scalar.State()) {
			t.Fatal("accepted batch diverged from the sequential loop")
		}
	})
}

// fuzzProfile is the deterministic 16-row profile FuzzRefreshBatch banks are
// built from. Banks only read their profile, so sharing it across the fuzz
// engine's worker goroutines is safe.
var fuzzProfile = func() *retention.BankProfile {
	geom := device.BankGeometry{Rows: 16, Cols: 4}
	p := &retention.BankProfile{
		Geom:     geom,
		True:     make([]float64, geom.Rows),
		Profiled: make([]float64, geom.Rows),
	}
	for r := range p.True {
		p.True[r] = 0.064 * float64(r+2)
		p.Profiled[r] = retention.ProfileRetention(p.True[r])
	}
	return p
}()
