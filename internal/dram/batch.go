// Columnar batch kernels over the bank's structure-of-arrays row state.
//
// The simulator's hot path senses and restores one row per refresh event;
// the batched runner splits that work in two. ChargeAtBatch senses a whole
// batch of events in one pass - row and time checks up front, then decay as
// tight loops over the charge/lastT/tret columns - and RestoreSensed then
// applies each event's restore in (time, row) order. The batched arithmetic
// is expression-for-expression identical to the scalar ChargeAt/Refresh
// path, so a batch of distinct rows sensed and restored this way is
// bit-identical to a sequential Refresh loop - the property the
// internal/sim backend equivalence tests pin down.
package dram

import (
	"fmt"
	"math"

	"vrldram/internal/retention"
)

// BatchModulator is a Modulator that can integrate decay for many rows in
// one call, amortizing change-point partitioning across rows that share a
// segment schedule (internal/scenario's Env implements it). All slices are
// batch-aligned: out[i] must equal DecayFactor(rows[i], tret[i], t0[i],
// t1[i], base) bit for bit.
type BatchModulator interface {
	Modulator
	DecayFactors(rows []int, tret, t0, t1 []float64, base retention.DecayModel, out []float64)
}

// decayPlain evaluates the unmodulated decay laws with exactly the guards
// and expression shapes of retention.ExpDecay.Factor / LinearDecay.Factor.
func decayPlain(exp bool, dt, tret float64) float64 {
	if dt <= 0 {
		return 1
	}
	if tret <= 0 {
		return 0
	}
	if exp {
		return math.Exp2(-dt / tret)
	}
	f := 1 - (1-retention.SenseLimit)*dt/tret
	if f < 0 {
		return 0
	}
	return f
}

// growF resizes a scratch float column to n, reusing its backing array.
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// ChargeAtBatch computes the normalized weakest-cell charge of rows[i] at
// times[i] into out[i], without mutating any state - the batched analogue of
// ChargeAt. Inputs are validated up front (row range, times not preceding
// the rows' last restores) in batch order, so the first invalid entry
// surfaces the same error the scalar path would. If a row appears more than
// once, every occurrence is evaluated against the row's current state.
func (b *Bank) ChargeAtBatch(rows []int, times, out []float64) error {
	n := len(rows)
	if len(times) != n || len(out) != n {
		return fmt.Errorf("dram: batch size mismatch: %d rows, %d times, %d out", n, len(times), len(out))
	}
	nRows := b.Geom.Rows
	for i, r := range rows {
		if r < 0 || r >= nRows {
			return fmt.Errorf("dram: row %d out of range [0,%d)", r, nRows)
		}
		if times[i] < b.lastT[r] {
			return fmt.Errorf("dram: time went backwards for row %d: %.6g < %.6g", r, times[i], b.lastT[r])
		}
	}
	tret := b.retentions()
	switch {
	case b.mod != nil:
		if bm, ok := b.mod.(BatchModulator); ok {
			t0 := growF(&b.batchT0, n)
			tr := growF(&b.batchTret, n)
			f := growF(&b.batchF, n)
			for i, r := range rows {
				t0[i] = b.lastT[r]
				tr[i] = tret[r]
			}
			bm.DecayFactors(rows, tr, t0, times, b.Decay, f)
			for i, r := range rows {
				out[i] = b.charge[r] * f[i]
			}
			return nil
		}
		for i, r := range rows {
			out[i] = b.charge[r] * b.mod.DecayFactor(r, tret[r], b.lastT[r], times[i], b.Decay)
		}
	default:
		switch b.Decay.(type) {
		case retention.ExpDecay:
			if b.expMemoArg == nil {
				backing := make([]float64, 2*nRows)
				b.expMemoArg = backing[:nRows:nRows]
				b.expMemoVal = backing[nRows:]
			}
			ma, mv := b.expMemoArg, b.expMemoVal
			for i, r := range rows {
				dt := times[i] - b.lastT[r]
				var f float64
				switch {
				case dt <= 0:
					f = 1
				case tret[r] <= 0:
					f = 0
				default:
					if x := -dt / tret[r]; x == ma[r] {
						f = mv[r]
					} else {
						f = math.Exp2(x)
						ma[r], mv[r] = x, f
					}
				}
				out[i] = b.charge[r] * f
			}
		case retention.LinearDecay:
			for i, r := range rows {
				out[i] = b.charge[r] * decayPlain(false, times[i]-b.lastT[r], tret[r])
			}
		default:
			for i, r := range rows {
				out[i] = b.charge[r] * b.Decay.Factor(times[i]-b.lastT[r], tret[r])
			}
		}
	}
	return nil
}

// RestoreSensed applies one refresh restore to a row whose pre-restore
// charge v was already computed (by ChargeAtBatch): it records the
// violation if v is below the sensing limit, then restores by alpha -
// exactly the mutation half of Refresh. The caller owns the contract that v
// is the row's charge at t with no intervening mutation of the row.
func (b *Bank) RestoreSensed(row int, t, alpha, v float64) (RefreshResult, error) {
	if row < 0 || row >= b.Geom.Rows {
		return RefreshResult{}, fmt.Errorf("dram: row %d out of range [0,%d)", row, b.Geom.Rows)
	}
	if !(alpha >= 0 && alpha <= 1) { // rejects NaN too
		return RefreshResult{}, fmt.Errorf("dram: restore alpha %g outside [0,1]", alpha)
	}
	if v < retention.SenseLimit && !b.retired[row] {
		b.violations = append(b.violations, Violation{Row: row, Time: t, Charge: v})
	}
	after := v + (1-v)*alpha
	b.charge[row] = after
	b.lastT[row] = t
	return RefreshResult{ChargeBefore: v, ChargeAfter: after, ChargeRestored: after - v}, nil
}
