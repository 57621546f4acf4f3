package core

import (
	"math/rand"
	"testing"
)

// TestStreamViewTracksRefreshOp pins the OpStreamer contract the
// fast-forward kernel relies on: a view taken once keeps describing exactly
// what RefreshOp decides while the scheduler's state moves under it through
// RefreshOp, Upgrade, OnAccess and RestoreState. Before each RefreshOp the
// test reads the row's op, counter and period straight from the view's
// columns; after it, the view must show the counter update. A scheduler that
// reassigns a column instead of writing into it leaves the view stale and
// diverges here.
func TestStreamViewTracksRefreshOp(t *testing.T) {
	prof := testProfile(t)
	rm := paperRM(t)
	cfg := Config{Restore: rm}
	policies := []struct {
		name string
		new  func() (Scheduler, error)
	}{
		{"JEDEC", func() (Scheduler, error) { return NewJEDEC(0.064, rm) }},
		{"RAIDR", func() (Scheduler, error) { return NewRAIDR(prof, cfg) }},
		{"VRL", func() (Scheduler, error) { return NewVRL(prof, cfg) }},
		{"VRL-Access", func() (Scheduler, error) { return NewVRLAccess(prof, cfg) }},
	}
	const rows = 64 // a small row set, so every row is revisited often
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			build := func() Scheduler {
				s, err := pol.new()
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			sub, other := build(), build()
			// The snapshot restored mid-walk differs from the walk's state
			// in every column: other rows upgraded, counters advanced.
			if up, ok := other.(Upgrader); ok {
				for r := 1; r < rows; r += 2 {
					up.Upgrade(r)
				}
			}
			for r := 0; r < rows; r += 3 {
				other.RefreshOp(r, 0)
			}
			blob, err := other.(Snapshotter).SnapshotState()
			if err != nil {
				t.Fatal(err)
			}

			view := sub.(OpStreamer).StreamView()
			rng := rand.New(rand.NewSource(7))
			now := 0.0
			for step := 0; step < 20000; step++ {
				row := rng.Intn(rows)
				now += 1e-6
				switch k := rng.Intn(100); {
				case step == 4000 || step == 12000:
					if err := sub.(Snapshotter).RestoreState(blob); err != nil {
						t.Fatal(err)
					}
				case k < 85:
					want, wantCount := view.Full, 0
					if view.RCount != nil {
						if m := view.MPRSF[row]; m != sub.MPRSF(row) {
							t.Fatalf("step %d row %d: view mprsf %d, MPRSF %d", step, row, m, sub.MPRSF(row))
						}
						if c := view.RCount[row]; c != view.MPRSF[row] {
							want, wantCount = view.Partial, c+1
						}
					}
					if p, q := view.PeriodOf(row), sub.Period(row); p != q {
						t.Fatalf("step %d row %d: view period %g, Period %g", step, row, p, q)
					}
					if got := sub.RefreshOp(row, now); got != want {
						t.Fatalf("step %d row %d: view op %+v, RefreshOp %+v", step, row, want, got)
					}
					if view.RCount != nil && view.RCount[row] != wantCount {
						t.Fatalf("step %d row %d: view counter %d after RefreshOp, want %d", step, row, view.RCount[row], wantCount)
					}
				case k < 95:
					sub.OnAccess(row, now)
				default:
					if up, ok := sub.(Upgrader); ok {
						up.Upgrade(row)
					}
				}
			}
		})
	}
}
