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

// batchOp is one refresh in a batch: sense Row at Time, then restore its
// charge by Alpha (v' = v + (1-v)*Alpha, as in Refresh).
type batchOp struct {
	Row         int
	Time, Alpha float64
}

// refreshBatch runs ops through the pair the batched simulator runner calls:
// one ChargeAtBatch over the whole batch, then RestoreSensed per op in batch
// order. The runner's batches hold distinct rows in (time, row) order.
func refreshBatch(b *Bank, ops []batchOp) ([]RefreshResult, error) {
	rows := make([]int, len(ops))
	times := make([]float64, len(ops))
	for i, op := range ops {
		rows[i], times[i] = op.Row, op.Time
	}
	charges := make([]float64, len(ops))
	if err := b.ChargeAtBatch(rows, times, charges); err != nil {
		return nil, err
	}
	results := make([]RefreshResult, len(ops))
	for i, op := range ops {
		res, err := b.RestoreSensed(op.Row, op.Time, op.Alpha, charges[i])
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// refreshLoop is the sequential reference: Refresh per op, stopping at the
// first error.
func refreshLoop(b *Bank, ops []batchOp) ([]RefreshResult, error) {
	results := make([]RefreshResult, len(ops))
	for i, op := range ops {
		res, err := b.Refresh(op.Row, op.Time, op.Alpha)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// randomBatch draws a valid batch: distinct rows in strictly increasing
// (time, row) order starting at or after t0, with alphas in [0, 1]. Low
// alphas and generous time steps push charges below the sensing limit, so
// the violation paths get real coverage.
func randomBatch(rng *rand.Rand, rows int, t0 float64) ([]batchOp, float64) {
	k := 1 + rng.Intn(rows)
	perm := rng.Perm(rows)[:k]
	ops := make([]batchOp, k)
	t := t0
	for i, r := range perm {
		if i == 0 || rng.Intn(3) > 0 {
			t += rng.Float64() * 0.3
		}
		ops[i] = batchOp{Row: r, Time: t, Alpha: rng.Float64()}
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
// property of the batched runner's sense-then-restore split: ChargeAtBatch
// over a batch followed by RestoreSensed per op must leave the bank in
// exactly the state a sequential Refresh loop would - same charge and lastT
// columns, same violations in the same order, same per-op results - across
// decay models (covering the memoized exponential, the linear, and the
// generic columnar kernels).
func TestRefreshBatchMatchesSequential(t *testing.T) {
	decays := []retention.DecayModel{retention.ExpDecay{}, retention.LinearDecay{}, hyperbolicDecay{}}
	for _, decay := range decays {
		t.Run(decay.Name(), func(t *testing.T) {
			batched := newBankDecay(t, decay)
			scalar := newBankDecay(t, decay)
			rng := rand.New(rand.NewSource(3))
			tNow := 0.0
			for round := 0; round < 200; round++ {
				var ops []batchOp
				ops, tNow = randomBatch(rng, batched.Geom.Rows, tNow)
				gotRes, err := refreshBatch(batched, ops)
				if err != nil {
					t.Fatalf("round %d: batched refresh: %v", round, err)
				}
				wantRes, err := refreshLoop(scalar, ops)
				if err != nil {
					t.Fatalf("round %d: Refresh: %v", round, err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("round %d: results %+v, want %+v", round, gotRes, wantRes)
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

// TestRefreshBatchValidation: every op the sequential Refresh loop refuses
// is refused by the batched pair too, before any mutation when the op is
// the batch's only one. Distinct rows need no order among themselves: the
// senses of one row never read another row's restore, so a batch out of
// (time, row) order still matches the loop.
func TestRefreshBatchValidation(t *testing.T) {
	cases := []struct {
		name    string
		ops     []batchOp
		wantErr bool
	}{
		{"row-negative", []batchOp{{Row: -1, Time: 0.1, Alpha: 1}}, true},
		{"row-high", []batchOp{{Row: 16, Time: 0.1, Alpha: 1}}, true},
		{"alpha-negative", []batchOp{{Row: 1, Time: 0.1, Alpha: -0.1}}, true},
		{"alpha-high", []batchOp{{Row: 1, Time: 0.1, Alpha: 1.1}}, true},
		{"alpha-nan", []batchOp{{Row: 1, Time: 0.1, Alpha: math.NaN()}}, true},
		{"time-reversed", []batchOp{{Row: 1, Time: 0.2, Alpha: 1}, {Row: 2, Time: 0.1, Alpha: 0.5}}, false},
		{"tie-row-reversed", []batchOp{{Row: 2, Time: 0.1, Alpha: 1}, {Row: 1, Time: 0.1, Alpha: 0.5}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBank(t)
			pre := b.State()
			got, err := refreshBatch(b, tc.ops)
			if tc.wantErr {
				if err == nil {
					t.Fatal("invalid batch accepted")
				}
				if !reflect.DeepEqual(b.State(), pre) {
					t.Fatal("rejected batch mutated the bank")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			ref := newBank(t)
			want, err := refreshLoop(ref, tc.ops)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(b.State(), ref.State()) {
				t.Fatal("batch of distinct rows diverged from the sequential loop")
			}
		})
	}

	b := newBank(t)
	if _, err := b.Refresh(4, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	pre := b.State()
	if _, err := refreshBatch(b, []batchOp{{Row: 4, Time: 0.5, Alpha: 1}}); err == nil {
		t.Fatal("batch preceding a row's last restore accepted")
	}
	if !reflect.DeepEqual(b.State(), pre) {
		t.Fatal("rejected batch mutated the bank")
	}
	if err := b.ChargeAtBatch([]int{1}, []float64{2}, make([]float64, 2)); err == nil {
		t.Fatal("mismatched output length accepted")
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

// FuzzRefreshBatch decodes arbitrary bytes into a sequence of batches -
// rows, time deltas and alphas all allowed to go invalid - and checks the
// batched runner's sense-then-restore pair against the sequential Refresh
// loop both ways: the pair refuses a batch exactly when the loop does, and
// an accepted batch is bit-identical to the loop in its results and in the
// bank's State(). Each batch obeys the runner's contract (distinct rows in
// (time, row) order): an op whose row already sits in the open batch, or
// that does not follow its predecessor in (time, row) order, starts the
// next batch. A negative time delta can therefore land an op before its
// row's last restore in an earlier batch.
func FuzzRefreshBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 16, 200, 5, 16, 200})   // two rows, alpha out of range
	f.Add([]byte{3, 16, 200, 3, 16, 200})   // repeated row: two batches
	f.Add([]byte{200, 16, 200})             // row out of range
	f.Add([]byte{3, 16, 255, 4, 0, 255})    // time tie, rows increasing
	f.Add([]byte{4, 16, 200, 3, 0, 200})    // time tie, rows decreasing: two batches
	f.Add([]byte{3, 0x90, 200})             // negative time delta
	f.Add([]byte{3, 16, 0xF0})              // alpha out of range
	f.Add([]byte{3, 16, 100, 3, 0xF0, 100}) // repeated row back before its last restore
	f.Fuzz(func(t *testing.T, data []byte) {
		batched, err := NewBank(fuzzProfile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := NewBank(fuzzProfile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		var batches [][]batchOp
		var open []batchOp
		inBatch := map[int]bool{}
		tNow := 0.0
		for i := 0; i+2 < len(data); i += 3 {
			// Row byte may exceed the 16-row bank; the signed delta byte may
			// step time backwards; the signed alpha byte may leave [0, 1].
			tNow += float64(int8(data[i+1])) / 64
			op := batchOp{Row: int(data[i]), Time: tNow, Alpha: float64(int8(data[i+2])) / 100}
			if n := len(open); n > 0 {
				prev := open[n-1]
				if inBatch[op.Row] || op.Time < prev.Time || (op.Time == prev.Time && op.Row < prev.Row) {
					batches = append(batches, open)
					open, inBatch = nil, map[int]bool{}
				}
			}
			open = append(open, op)
			inBatch[op.Row] = true
		}
		if len(open) > 0 {
			batches = append(batches, open)
		}
		for i, ops := range batches {
			got, gotErr := refreshBatch(batched, ops)
			want, wantErr := refreshLoop(scalar, ops)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("batch %d %+v: batched error %v, sequential error %v", i, ops, gotErr, wantErr)
			}
			if gotErr != nil {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batch %d: results %+v, want %+v", i, got, want)
			}
		}
		if !reflect.DeepEqual(batched.State(), scalar.State()) {
			t.Fatal("accepted batches diverged from the sequential loop")
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
