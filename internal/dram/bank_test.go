package dram

import (
	"math"
	"testing"

	"vrldram/internal/device"
	"vrldram/internal/retention"
)

func smallProfile(t *testing.T) *retention.BankProfile {
	t.Helper()
	geom := device.BankGeometry{Rows: 16, Cols: 4}
	p := &retention.BankProfile{
		Geom:     geom,
		True:     make([]float64, geom.Rows),
		Profiled: make([]float64, geom.Rows),
	}
	for r := range p.True {
		p.True[r] = 0.064 * float64(r+2) // 128 ms .. ~1.1 s
		p.Profiled[r] = retention.ProfileRetention(p.True[r])
	}
	return p
}

func newBank(t *testing.T) *Bank {
	t.Helper()
	b, err := NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(nil, retention.ExpDecay{}, retention.PatternAllZeros); err == nil {
		t.Fatal("nil profile must be rejected")
	}
	p := smallProfile(t)
	p.True = p.True[:3]
	if _, err := NewBank(p, retention.ExpDecay{}, retention.PatternAllZeros); err == nil {
		t.Fatal("mismatched profile size must be rejected")
	}
	// Nil decay defaults to exponential.
	b, err := NewBank(smallProfile(t), nil, retention.PatternAllZeros)
	if err != nil || b.Decay.Name() != "exponential" {
		t.Fatalf("nil decay should default: %v, %v", b, err)
	}
}

func TestChargeDecaysPerModel(t *testing.T) {
	b := newBank(t)
	row := 5
	tret := b.Profile.True[row] // all-zeros pattern: factor 1
	v, err := b.ChargeAt(row, tret)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 1e-12 {
		t.Fatalf("charge at the retention time = %v, want 0.5", v)
	}
	v0, err := b.ChargeAt(row, 0)
	if err != nil || v0 != 1 {
		t.Fatalf("initial charge = %v, %v", v0, err)
	}
}

func TestPatternScalesDecay(t *testing.T) {
	pAlt, err := NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAlternating)
	if err != nil {
		t.Fatal(err)
	}
	pZero, err := NewBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	tEval := 0.1
	vAlt, _ := pAlt.ChargeAt(3, tEval)
	vZero, _ := pZero.ChargeAt(3, tEval)
	if vAlt >= vZero {
		t.Fatalf("worst-case pattern should leak faster: %v vs %v", vAlt, vZero)
	}
}

func TestChargeAtErrors(t *testing.T) {
	b := newBank(t)
	if _, err := b.ChargeAt(-1, 0); err == nil {
		t.Fatal("negative row must error")
	}
	if _, err := b.ChargeAt(99, 0); err == nil {
		t.Fatal("out-of-range row must error")
	}
	if _, err := b.Refresh(2, 0.05, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ChargeAt(2, 0.01); err == nil {
		t.Fatal("time before last restore must error")
	}
}

func TestRefreshRestores(t *testing.T) {
	b := newBank(t)
	row, at := 4, 0.05
	before, _ := b.ChargeAt(row, at)
	res, err := b.Refresh(row, at, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ChargeBefore-before) > 1e-12 {
		t.Fatalf("recorded before = %v, want %v", res.ChargeBefore, before)
	}
	want := before + (1-before)*0.9
	if math.Abs(res.ChargeAfter-want) > 1e-12 {
		t.Fatalf("after = %v, want %v", res.ChargeAfter, want)
	}
	if math.Abs(res.ChargeRestored-(want-before)) > 1e-12 {
		t.Fatal("restored delta inconsistent")
	}
	now, _ := b.ChargeAt(row, at)
	if math.Abs(now-want) > 1e-12 {
		t.Fatal("bank state not updated")
	}
	if _, err := b.Refresh(row, at, 1.5); err == nil {
		t.Fatal("alpha > 1 must be rejected")
	}
}

func TestAccessFullyRestores(t *testing.T) {
	b := newBank(t)
	res, err := b.Access(3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChargeAfter != 1 {
		t.Fatalf("access restores to %v, want 1", res.ChargeAfter)
	}
	v, _ := b.ChargeAt(3, 0.05)
	if v != 1 {
		t.Fatal("state not updated")
	}
}

func TestViolationRecordedOnLateSense(t *testing.T) {
	b := newBank(t)
	row := 0 // true retention 128 ms
	late := b.Profile.True[row] * 1.5
	if _, err := b.Refresh(row, late, 1); err != nil {
		t.Fatal(err)
	}
	viol := b.Violations()
	if len(viol) != 1 {
		t.Fatalf("got %d violations, want 1", len(viol))
	}
	if viol[0].Row != row || viol[0].Charge >= retention.SenseLimit {
		t.Fatalf("violation record wrong: %+v", viol[0])
	}
	// A timely refresh records nothing further.
	if _, err := b.Refresh(1, 0.01, 1); err != nil {
		t.Fatal(err)
	}
	if len(b.Violations()) != 1 {
		t.Fatal("timely refresh must not record a violation")
	}
}

func TestCheckAll(t *testing.T) {
	b := newBank(t)
	// At 100 ms, row 0 (128 ms retention) is still fine; at 200 ms it is not.
	bad, err := b.CheckAll(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("unexpected failures at 100 ms: %d", bad)
	}
	b2 := newBank(t)
	bad, err = b2.CheckAll(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("row 0 must have failed by 200 ms")
	}
	if len(b2.Violations()) != bad {
		t.Fatal("CheckAll must record its failures")
	}
}

func TestRepeatedRefreshKeepsChargeUp(t *testing.T) {
	b := newBank(t)
	row := 0
	period := 0.064
	for k := 1; k <= 20; k++ {
		if _, err := b.Refresh(row, float64(k)*period, 0.999); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.Violations()) != 0 {
		t.Fatalf("violations under timely full refreshes: %d", len(b.Violations()))
	}
	v, _ := b.ChargeAt(row, 20*period)
	if v < 0.99 {
		t.Fatalf("charge after steady refreshing = %v", v)
	}
}

func TestBankWithVRT(t *testing.T) {
	b := newBank(t)
	v := retention.DefaultVRT()
	if err := b.SetVRT(&v); err != nil {
		t.Fatal(err)
	}
	// Charge still decays and stays in [0, 1].
	for _, row := range []int{0, 7, 15} {
		c, err := b.ChargeAt(row, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if c <= 0 || c > 1 {
			t.Fatalf("row %d charge %v out of range", row, c)
		}
	}
	bad := retention.VRT{AffectedFrac: 2}
	if err := b.SetVRT(&bad); err == nil {
		t.Fatal("invalid VRT must be rejected")
	}
	if err := b.SetVRT(nil); err != nil || b.ActiveModulator() != nil {
		t.Fatal("detaching VRT failed")
	}
}

// scaleMod is a stand-in scenario modulator: plain decay at a fixed scale.
type scaleMod struct{}

func (scaleMod) DecayFactor(_ int, tret, t0, t1 float64, base retention.DecayModel) float64 {
	return base.Factor(t1-t0, tret/2)
}

// TestModulationSlot pins the single modulation slot's rules: a VRT process
// and a scenario modulator exclude each other in both orders, detaching one
// kind never drops the other, and a detached slot is an untyped nil.
func TestModulationSlot(t *testing.T) {
	v := retention.DefaultVRT()
	b := newBank(t)
	if err := b.SetVRT(&v); err != nil {
		t.Fatal(err)
	}
	if err := b.SetModulator(scaleMod{}); err == nil {
		t.Fatal("a scenario modulator must be refused while a VRT process is attached")
	}
	if err := b.SetModulator(nil); err != nil || b.ActiveModulator() != Modulator(&v) {
		t.Fatal("SetModulator(nil) must leave the VRT process attached")
	}
	w := retention.DefaultVRT()
	if err := b.SetVRT(&w); err != nil || b.ActiveModulator() != Modulator(&w) {
		t.Fatal("a second SetVRT must replace the first process")
	}
	if err := b.SetVRT(nil); err != nil {
		t.Fatal(err)
	}
	if m := b.ActiveModulator(); m != nil {
		t.Fatalf("SetVRT(nil) left %#v in the slot, want untyped nil", m)
	}

	b = newBank(t)
	if err := b.SetModulator(scaleMod{}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetVRT(&v); err == nil {
		t.Fatal("a VRT process must be refused while a scenario modulator is attached")
	}
	if err := b.SetVRT(nil); err != nil || b.ActiveModulator() != Modulator(scaleMod{}) {
		t.Fatal("SetVRT(nil) must leave the scenario modulator attached")
	}
	want := retention.ExpDecay{}.Factor(0.05, b.effectiveRetention(3)/2)
	if got, err := b.ChargeAt(3, 0.05); err != nil || got != want {
		t.Fatalf("ChargeAt under the modulator = %v, %v; want %v", got, err, want)
	}
}
