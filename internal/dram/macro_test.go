package dram

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/retention"
)

// TestMacroSortedReplayMatchesSortAndSum drives the macro kernel's
// order-verification fallback directly: buffered events laid out lane by
// lane and row-major - so out of global (time, row) order, with time ties
// between rows - must fold into the accumulator in exactly the order a plain
// pick-the-minimum walk takes, and report that walk's last op and time.
// Deltas span sixty binades, so any other summation order shows up in the
// result bits.
func TestMacroSortedReplayMatchesSortAndSum(t *testing.T) {
	type evd struct {
		t     float64
		row   int
		delta float64
		op    byte
	}
	rng := rand.New(rand.NewSource(5))
	unsorted, orderMatters := 0, 0
	for trial := 0; trial < 300; trial++ {
		var sc StreamScratch
		plan := make([]macroLane, 1+rng.Intn(3))
		evTotal, rowTotal := 0, 0
		for li := range plan {
			n, stride := 1+rng.Intn(12), 1+rng.Intn(5)
			plan[li] = macroLane{evBase: evTotal, rowBase: rowTotal, n: n, stride: stride}
			evTotal += macroCap(n, stride)
			rowTotal += n
		}
		sc.times = make([]float64, evTotal)
		sc.deltas = make([]float64, evTotal)
		sc.ops = make([]byte, evTotal)
		sc.mrows = make([]int32, rowTotal)
		sc.mcnt = make([]int32, rowTotal)
		rowIDs := rng.Perm(rowTotal)
		var buffered []evd
		for li := range plan {
			pl := &plan[li]
			for j := 0; j < pl.n; j++ {
				row := rowIDs[pl.rowBase+j]
				cnt := rng.Intn(pl.stride + 1)
				sc.mrows[pl.rowBase+j] = int32(row)
				sc.mcnt[pl.rowBase+j] = int32(cnt)
				base := pl.evBase + macroIdx(j, 0, pl.stride)
				tm := float64(rng.Intn(8)) / 8
				for k := 0; k < cnt; k++ {
					e := evd{
						t:     tm,
						row:   row,
						delta: math.Ldexp(rng.Float64()-0.5, rng.Intn(60)-30),
						op:    byte(rng.Intn(2)),
					}
					sc.times[base+(k<<3)] = e.t
					sc.deltas[base+(k<<3)] = e.delta
					sc.ops[base+(k<<3)] = e.op
					buffered = append(buffered, e)
					tm += float64(1+rng.Intn(4)) / 8
				}
			}
		}
		acc0 := rng.Float64()

		// Reference: repeatedly take the (time, row)-least remaining event.
		wantAcc, wantOp, wantT := acc0, byte(1), math.Inf(-1)
		naiveAcc := acc0
		taken := make([]bool, len(buffered))
		inOrder := true
		for i := range buffered {
			naiveAcc += buffered[i].delta
			best := -1
			for j, e := range buffered {
				if taken[j] {
					continue
				}
				if best < 0 || e.t < buffered[best].t || (e.t == buffered[best].t && e.row < buffered[best].row) {
					best = j
				}
			}
			if best != i {
				inOrder = false
			}
			taken[best] = true
			wantAcc += buffered[best].delta
			wantOp, wantT = buffered[best].op, buffered[best].t
		}
		if !inOrder {
			unsorted++
		}
		if naiveAcc != wantAcc {
			orderMatters++
		}

		gotAcc, gotOp, gotT := macroSortedReplay(&sc, plan, acc0)
		if gotAcc != wantAcc || gotOp != wantOp || gotT != wantT {
			t.Fatalf("trial %d (%d events): replay = (%v, %d, %v), sort-and-sum = (%v, %d, %v)",
				trial, len(buffered), gotAcc, gotOp, gotT, wantAcc, wantOp, wantT)
		}
	}
	if unsorted == 0 || orderMatters == 0 {
		t.Fatalf("vacuous: %d trials buffered out of order, %d had an order-sensitive sum", unsorted, orderMatters)
	}
}

// macroFixture is a steady one-lane window over the 16-row test bank: every
// row queued once at a staggered phase of the shared period, with partial
// refresh counters so both ops occur.
type macroFixture struct {
	bank    *Bank
	lanes   []RefreshLane
	view    core.StreamView
	horizon float64
}

const macroPeriod = 0.064

func newMacroFixture(t *testing.T) *macroFixture {
	t.Helper()
	b := newBankDecay(t, retention.ExpDecay{})
	rows := b.Geom.Rows
	f := &macroFixture{
		bank:    b,
		horizon: 5.5 * macroPeriod,
		view: core.StreamView{
			Period:  macroPeriod,
			RCount:  make([]int, rows),
			MPRSF:   make([]int, rows),
			Full:    core.Op{Full: true, Cycles: 40, Alpha: 0.999},
			Partial: core.Op{Cycles: 25, Alpha: 0.6},
		},
	}
	ev := make([]StreamEvent, rows)
	for r := range ev {
		ev[r] = StreamEvent{T: float64(r) * macroPeriod / float64(rows), Row: r}
		f.view.MPRSF[r] = r % 4
	}
	f.lanes = []RefreshLane{{Delta: macroPeriod, Events: ev}}
	return f
}

func cloneLanes(lanes []RefreshLane) []RefreshLane {
	out := make([]RefreshLane, len(lanes))
	for i, l := range lanes {
		out[i] = RefreshLane{Delta: l.Delta, Head: l.Head, Events: append([]StreamEvent(nil), l.Events...)}
	}
	return out
}

// TestRefreshMacroBailsOnIrregularLanes hands the kernel lane shapes outside
// its regular-lap structure. Each must come back Bailed with nothing
// consumed, and with the bank, the lanes, and the scheduler's counter column
// exactly as they were - the contract that lets the simulator run the same
// window on the batch path instead.
func TestRefreshMacroBailsOnIrregularLanes(t *testing.T) {
	cases := []struct {
		name  string
		shape func(f *macroFixture)
	}{
		{"row queued twice", func(f *macroFixture) {
			l := &f.lanes[0]
			dup := l.Events[5]
			dup.T += macroPeriod / 64
			l.Events = append(l.Events[:6], append([]StreamEvent{dup}, l.Events[6:]...)...)
		}},
		{"row in two lanes", func(f *macroFixture) {
			f.view.Periods = make([]float64, len(f.view.MPRSF))
			for r := range f.view.Periods {
				f.view.Periods[r] = macroPeriod
			}
			f.lanes = append(f.lanes, RefreshLane{Delta: 2 * macroPeriod, Events: []StreamEvent{{T: 0.01, Row: 3}}})
		}},
		{"period left its lane", func(f *macroFixture) {
			f.view.Periods = make([]float64, len(f.view.MPRSF))
			for r := range f.view.Periods {
				f.view.Periods[r] = macroPeriod
			}
			f.view.Periods[7] = 2 * macroPeriod
		}},
		{"counts span three values", func(f *macroFixture) {
			f.lanes[0].Events = []StreamEvent{
				{T: 0, Row: 0}, {T: 0.5 * macroPeriod, Row: 1}, {T: 1.2 * macroPeriod, Row: 2}, {T: 2.1 * macroPeriod, Row: 3},
			}
			f.horizon = 2.5 * macroPeriod
		}},
		{"non-positive lane period", func(f *macroFixture) {
			f.lanes[0].Delta = 0
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newMacroFixture(t)
			// Age the bank a little so its state is not the constructor's.
			for r := 0; r < f.bank.Geom.Rows; r += 3 {
				if _, err := f.bank.Refresh(r, 0, 0.5); err != nil {
					t.Fatal(err)
				}
			}
			c.shape(f)
			state, lanes := f.bank.State(), cloneLanes(f.lanes)
			rcount := append([]int(nil), f.view.RCount...)
			var sc StreamScratch
			res, err := f.bank.RefreshMacro(&sc, f.lanes, f.horizon, &f.view, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Bailed || res.Events != 0 || res.ChargeRestored != 0.25 {
				t.Fatalf("result %+v, want a clean bail with the accumulator untouched", res)
			}
			if !reflect.DeepEqual(f.bank.State(), state) {
				t.Fatal("bailed window mutated the bank")
			}
			if !reflect.DeepEqual(f.lanes, lanes) {
				t.Fatal("bailed window mutated the lanes")
			}
			if !reflect.DeepEqual(f.view.RCount, rcount) {
				t.Fatal("bailed window mutated the refresh counters")
			}
		})
	}
}

// TestRefreshMacroMatchesSequentialRefresh is the positive control for the
// bail test: on the regular shape the kernel takes the window, and its
// bank state, counters, accounting and re-armed lane equal a plain
// per-event Bank.Refresh replay in (time, row) order.
func TestRefreshMacroMatchesSequentialRefresh(t *testing.T) {
	f := newMacroFixture(t)
	ref := newBankDecay(t, retention.ExpDecay{})

	type evt struct {
		t   float64
		row int
	}
	var order []evt
	var next []StreamEvent
	for _, e := range f.lanes[0].Events {
		tm := e.T
		for ; tm < f.horizon; tm += macroPeriod {
			order = append(order, evt{tm, e.Row})
		}
		next = append(next, StreamEvent{T: tm, Row: e.Row})
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i].t < order[j].t || (order[i].t == order[j].t && order[i].row < order[j].row)
	})
	sort.Slice(next, func(i, j int) bool {
		return next[i].T < next[j].T || (next[i].T == next[j].T && next[i].Row < next[j].Row)
	})
	acc := 0.25
	rcount := make([]int, ref.Geom.Rows)
	var fulls int64
	lastCycles := 0
	for _, e := range order {
		alpha, cyc := f.view.Partial.Alpha, f.view.Partial.Cycles
		if rcount[e.row] == f.view.MPRSF[e.row] {
			alpha, cyc = f.view.Full.Alpha, f.view.Full.Cycles
			rcount[e.row] = 0
			fulls++
		} else {
			rcount[e.row]++
		}
		res, err := ref.Refresh(e.row, e.t, alpha)
		if err != nil {
			t.Fatal(err)
		}
		acc += res.ChargeRestored
		lastCycles = cyc
	}

	var sc StreamScratch
	res, err := f.bank.RefreshMacro(&sc, f.lanes, f.horizon, &f.view, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bailed || res.Events != len(order) {
		t.Fatalf("result %+v, want all %d events consumed", res, len(order))
	}
	if res.ChargeRestored != acc || res.Fulls != fulls || res.Partials != int64(len(order))-fulls ||
		res.LastTime != order[len(order)-1].t || res.LastCycles != lastCycles {
		t.Fatalf("accounting %+v, want acc %v fulls %d last (%v, %d)", res, acc, fulls, order[len(order)-1].t, lastCycles)
	}
	if !reflect.DeepEqual(f.bank.State(), ref.State()) {
		t.Fatal("kernel and sequential bank states diverged")
	}
	if !reflect.DeepEqual(f.view.RCount, rcount) {
		t.Fatalf("counters %v, want %v", f.view.RCount, rcount)
	}
	if got := f.lanes[0].Events[f.lanes[0].Head:]; !reflect.DeepEqual(got, next) {
		t.Fatalf("re-armed lane %v, want %v", got, next)
	}
}
