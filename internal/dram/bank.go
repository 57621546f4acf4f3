// Package dram models a DRAM bank at the granularity the VRL-DRAM mechanism
// cares about: the normalized charge of each row's weakest cell, decaying
// according to the row's true retention time and the stored data pattern,
// restored by refresh operations and row activations.
//
// The bank is the mechanism's safety net: every refresh and access first
// senses the row, and a row whose weakest cell has fallen below the sensing
// limit records a data-integrity violation. A correctly computed MPRSF must
// never produce one; the failure-injection tests show that an unsafe
// configuration does.
package dram

import (
	"fmt"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

// Violation records a data-integrity failure: a row was sensed while its
// weakest cell was below the sensing limit.
type Violation struct {
	Row    int
	Time   float64 // seconds
	Charge float64 // normalized charge at sensing
}

// Modulator modulates per-row retention over time: DecayFactor integrates
// the decay of a row with base retention tret across [t0, t1] under the
// modulation. retention.VRT satisfies it directly; internal/scenario's Env
// satisfies it for composed stress schedules (the interface lives here,
// structurally, so neither package imports the other).
type Modulator interface {
	DecayFactor(row int, tret, t0, t1 float64, base retention.DecayModel) float64
}

// Bank tracks per-row weakest-cell charge lazily: each row stores its charge
// at the time of its last restore, and decay is applied on demand.
type Bank struct {
	Geom    device.BankGeometry
	Profile *retention.BankProfile
	Decay   retention.DecayModel
	Pattern retention.Pattern

	// mod, when non-nil, modulates per-row retention over time: either a
	// random-telegraph process (SetVRT; static profiles do not see it -
	// that is the point of the VRT experiments) or a composed stress
	// schedule (SetModulator, internal/scenario) that already folds any VRT
	// process into its segment integration. A bank runs at most one
	// retention view, so attaching both is refused.
	mod Modulator

	// Row state is a structure-of-arrays: the batched kernels in batch.go
	// stream over these slices directly, so they share one backing array
	// (one allocation, contiguous cache lines) and are never appended to.
	charge []float64 // normalized charge at lastT
	lastT  []float64 // time the charge was last set (s)
	tret   []float64 // effective retention under the stored pattern (s)

	// tretPattern is the pattern tret was computed for; retentions()
	// recomputes the slice if the exported Pattern field was changed after
	// construction, keeping the precomputed column equal to what
	// effectiveRetention returns live.
	tretPattern retention.Pattern

	// retired rows have been quarantined by a spare-row remap (see
	// internal/scrub): their data lives on an implicitly healthy spare, so
	// sensing the weak row no longer records integrity violations.
	retired []bool

	violations []Violation

	// Batch scratch (pure caches, never part of State): gather buffers for
	// ChargeAtBatch's BatchModulator path.
	batchF    []float64 // modulator decay factors
	batchT0   []float64 // gathered last-restore times
	batchTret []float64 // gathered effective retentions

	// Per-row Exp2 memo for the batched exponential-decay kernel. A row
	// refreshed on a steady period sees the bit-identical -dt/tret argument
	// refresh after refresh, so caching the last (argument, result) pair
	// skips most Exp2 calls. Value-keyed on the exact argument bits, the
	// memo can never change a result. expMemoArg[r] is the last argument
	// (always negative in the kernel, so the zero value never false-hits);
	// expMemoVal[r] the corresponding Exp2. One backing array holds both.
	expMemoArg []float64
	expMemoVal []float64
}

// NewBank returns a bank with every row fully charged at t = 0.
func NewBank(profile *retention.BankProfile, decay retention.DecayModel, pattern retention.Pattern) (*Bank, error) {
	if profile == nil {
		return nil, fmt.Errorf("dram: nil profile")
	}
	if decay == nil {
		decay = retention.ExpDecay{}
	}
	if len(profile.True) != profile.Geom.Rows {
		return nil, fmt.Errorf("dram: profile has %d rows, geometry says %d", len(profile.True), profile.Geom.Rows)
	}
	rows := profile.Geom.Rows
	backing := make([]float64, 3*rows)
	b := &Bank{
		Geom:    profile.Geom,
		Profile: profile,
		Decay:   decay,
		Pattern: pattern,
		charge:  backing[0*rows : 1*rows : 1*rows],
		lastT:   backing[1*rows : 2*rows : 2*rows],
		tret:    backing[2*rows : 3*rows : 3*rows],
		retired: make([]bool, rows),
	}
	for r := range b.charge {
		b.charge[r] = 1
	}
	b.fillRetentions()
	return b, nil
}

// fillRetentions precomputes the tret column with exactly the expression
// effectiveRetention evaluates, so the batched kernels read values that are
// bit-identical to the scalar path's.
func (b *Bank) fillRetentions() {
	pf := retention.PatternFactor(b.Pattern)
	for r := range b.tret {
		b.tret[r] = b.Profile.True[r] * pf
	}
	b.tretPattern = b.Pattern
}

// retentions returns the precomputed per-row effective retention column,
// refreshing it first if the Pattern field was mutated since the last fill.
func (b *Bank) retentions() []float64 {
	if b.tretPattern != b.Pattern {
		b.fillRetentions()
	}
	return b.tret
}

// effectiveRetention is the row's true retention under the stored pattern.
func (b *Bank) effectiveRetention(row int) float64 {
	return b.Profile.True[row] * retention.PatternFactor(b.Pattern)
}

// hasVRT reports whether the attached modulator is a SetVRT process.
func (b *Bank) hasVRT() bool {
	_, ok := b.mod.(*retention.VRT)
	return ok
}

// SetVRT attaches a variable-retention-time process to the bank; pass nil
// to detach it (an attached scenario modulator stays). Returns an error for
// invalid parameters or if a scenario modulator is already attached (fold
// the VRT into the scenario instead).
func (b *Bank) SetVRT(v *retention.VRT) error {
	if v == nil {
		if b.hasVRT() {
			b.mod = nil
		}
		return nil
	}
	if err := v.Validate(); err != nil {
		return err
	}
	if b.mod != nil && !b.hasVRT() {
		return fmt.Errorf("dram: bank already carries a scenario modulator; compose the VRT into it")
	}
	b.mod = v
	return nil
}

// SetModulator attaches a composed retention modulation (a scenario Env) to
// the bank; pass nil to detach it (an attached VRT process stays). Mutually
// exclusive with SetVRT: a stress schedule that wants a telegraph process
// composes it as one of its own stressors, so the decay integration stays
// exact across overlapping change-points.
func (b *Bank) SetModulator(m Modulator) error {
	if b.hasVRT() {
		if m != nil {
			return fmt.Errorf("dram: bank already carries a VRT process; compose it into the scenario")
		}
		return nil
	}
	b.mod = m
	return nil
}

// ChargeAt returns the row's normalized weakest-cell charge at time t
// (t must not precede the row's last restore).
func (b *Bank) ChargeAt(row int, t float64) (float64, error) {
	if row < 0 || row >= b.Geom.Rows {
		return 0, fmt.Errorf("dram: row %d out of range [0,%d)", row, b.Geom.Rows)
	}
	dt := t - b.lastT[row]
	if dt < 0 {
		return 0, fmt.Errorf("dram: time went backwards for row %d: %.6g < %.6g", row, t, b.lastT[row])
	}
	tret := b.effectiveRetention(row)
	if b.mod != nil {
		return b.charge[row] * b.mod.DecayFactor(row, tret, b.lastT[row], t, b.Decay), nil
	}
	return b.charge[row] * b.Decay.Factor(dt, tret), nil
}

// sense reads the row's charge at t, recording a violation if it is below
// the sensing limit.
func (b *Bank) sense(row int, t float64) (float64, error) {
	v, err := b.ChargeAt(row, t)
	if err != nil {
		return 0, err
	}
	if v < retention.SenseLimit && !b.retired[row] {
		b.violations = append(b.violations, Violation{Row: row, Time: t, Charge: v})
	}
	return v, nil
}

// Retire quarantines the row: its data has been relocated to a spare, so
// the weak row's sub-limit senses stop counting as integrity violations.
// Retirement is permanent for the life of the bank.
func (b *Bank) Retire(row int) error {
	if row < 0 || row >= b.Geom.Rows {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, b.Geom.Rows)
	}
	b.retired[row] = true
	return nil
}

// Retired returns the retired rows in increasing order.
func (b *Bank) Retired() []int {
	n := 0
	for _, dead := range b.retired {
		if dead {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for r, dead := range b.retired {
		if dead {
			out = append(out, r)
		}
	}
	return out
}

// RefreshResult reports what one refresh operation did.
type RefreshResult struct {
	ChargeBefore   float64
	ChargeAfter    float64
	ChargeRestored float64 // normalized charge delivered (after - before)
}

// Refresh senses the row at time t and restores its charge by the refresh
// restore coefficient alpha: v' = v + (1-v)*alpha (paper Eq. 12 in
// normalized form). A full refresh has alpha ~ 1; a partial refresh the
// alpha of its truncated post-sensing window.
func (b *Bank) Refresh(row int, t, alpha float64) (RefreshResult, error) {
	if !(alpha >= 0 && alpha <= 1) { // rejects NaN too
		return RefreshResult{}, fmt.Errorf("dram: restore alpha %g outside [0,1]", alpha)
	}
	v, err := b.sense(row, t)
	if err != nil {
		return RefreshResult{}, err
	}
	after := v + (1-v)*alpha
	b.charge[row] = after
	b.lastT[row] = t
	return RefreshResult{ChargeBefore: v, ChargeAfter: after, ChargeRestored: after - v}, nil
}

// Access senses and activates the row at time t; an activation fully
// restores the row's charge (the property VRL-Access exploits).
func (b *Bank) Access(row int, t float64) (RefreshResult, error) {
	v, err := b.sense(row, t)
	if err != nil {
		return RefreshResult{}, err
	}
	b.charge[row] = 1
	b.lastT[row] = t
	return RefreshResult{ChargeBefore: v, ChargeAfter: 1, ChargeRestored: 1 - v}, nil
}

// Violations returns a copy of the integrity violations recorded so far.
// (A copy, like State: the internal slice is live checkpoint state, and an
// aliased return would let callers corrupt it.)
func (b *Bank) Violations() []Violation {
	return append([]Violation(nil), b.violations...)
}

// State is the bank's mutable simulation state: everything a checkpoint
// must capture to resume a run bit-identically. All slices are deep copies.
type State struct {
	Charge     []float64 // normalized charge at LastT, per row
	LastT      []float64 // time of each row's last restore (s)
	Violations []Violation
	Retired    []int // rows quarantined by spare-row remapping, increasing
}

// State snapshots the bank's mutable state.
func (b *Bank) State() State {
	return State{
		Charge:     append([]float64(nil), b.charge...),
		LastT:      append([]float64(nil), b.lastT...),
		Violations: append([]Violation(nil), b.violations...),
		Retired:    b.Retired(),
	}
}

// SetState replaces the bank's mutable state with a snapshot taken from a
// bank of the same geometry. The snapshot is copied, not aliased.
func (b *Bank) SetState(s State) error {
	if len(s.Charge) != b.Geom.Rows || len(s.LastT) != b.Geom.Rows {
		return fmt.Errorf("dram: state has %d/%d rows, bank has %d", len(s.Charge), len(s.LastT), b.Geom.Rows)
	}
	for r, c := range s.Charge {
		if c < 0 || c > 1 {
			return fmt.Errorf("dram: state charge %g for row %d outside [0,1]", c, r)
		}
	}
	for _, r := range s.Retired {
		if r < 0 || r >= b.Geom.Rows {
			return fmt.Errorf("dram: state retires row %d outside [0,%d)", r, b.Geom.Rows)
		}
	}
	copy(b.charge, s.Charge)
	copy(b.lastT, s.LastT)
	b.violations = append(b.violations[:0], s.Violations...)
	for r := range b.retired {
		b.retired[r] = false
	}
	for _, r := range s.Retired {
		b.retired[r] = true
	}
	return nil
}

// CheckAll senses every row at time t and returns the number of rows below
// the sensing limit (recording violations for each). Retired rows are
// skipped: their data lives on a spare. Useful as an end-of-simulation
// integrity sweep.
//
// For the plain-decay configuration the sweep runs as one tight loop over
// the charge/lastT/tret columns, producing the same violations in the same
// order as the scalar path.
func (b *Bank) CheckAll(t float64) (int, error) {
	if b.mod == nil {
		switch b.Decay.(type) {
		case retention.ExpDecay, retention.LinearDecay:
			return b.checkAllPlain(t)
		}
	}
	bad := 0
	for r := 0; r < b.Geom.Rows; r++ {
		if b.retired[r] {
			continue
		}
		v, err := b.sense(r, t)
		if err != nil {
			return bad, err
		}
		if v < retention.SenseLimit {
			bad++
		}
	}
	return bad, nil
}

// checkAllPlain is CheckAll for the unmodulated decay laws, evaluated
// columnar: identical arithmetic, violations appended in the same row order.
func (b *Bank) checkAllPlain(t float64) (int, error) {
	tret := b.retentions()
	exp := true
	if _, lin := b.Decay.(retention.LinearDecay); lin {
		exp = false
	}
	bad := 0
	for r := 0; r < b.Geom.Rows; r++ {
		if b.retired[r] {
			continue
		}
		dt := t - b.lastT[r]
		if dt < 0 {
			return bad, fmt.Errorf("dram: time went backwards for row %d: %.6g < %.6g", r, t, b.lastT[r])
		}
		v := b.charge[r] * decayPlain(exp, dt, tret[r])
		if v < retention.SenseLimit {
			b.violations = append(b.violations, Violation{Row: r, Time: t, Charge: v})
			bad++
		}
	}
	return bad, nil
}
