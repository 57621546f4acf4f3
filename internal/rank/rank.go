// Package rank models refresh at the rank level: a rank is a set of banks
// that can either refresh independently (per-bank refresh, DDR4 REFpb-style,
// the mode the paper's single-bank evaluation implies) or through all-bank
// refresh commands (DDR3 REFab-style) that hold every bank for the duration
// of the slowest one.
//
// All-bank refresh interacts badly with both of the retention-aware ideas
// this repository implements, and this package quantifies it:
//
//   - binning dilution: an all-bank command refreshing row r must satisfy
//     the WEAKEST bank's bin for r, so strong banks refresh too often;
//   - latency dilution: the command's tRFC is the MAXIMUM over banks, so a
//     single bank needing a full refresh forces every bank to wait out the
//     full latency even if the others only needed partials.
package rank

import (
	"container/heap"
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/retention"
	"vrldram/internal/sim"
)

// Mode selects the refresh command granularity.
type Mode int

// Refresh command modes.
const (
	// PerBank refreshes each bank independently; other banks stay available.
	PerBank Mode = iota
	// AllBank issues rank-wide refresh commands that block every bank.
	AllBank
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case PerBank:
		return "per-bank"
	case AllBank:
		return "all-bank"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a rank run.
type Options struct {
	Mode     Mode
	Duration float64 // s
	TCK      float64 // s
}

// Stats aggregates a rank-level run.
type Stats struct {
	Mode      string
	Scheduler string
	Banks     int

	RefreshCommands int64 // commands issued (per-bank: bank-row ops; all-bank: rank-row ops)
	FullCommands    int64 // commands at full tRFC (all-bank: any bank full)
	PartialCommands int64

	// BankBusyCycles sums, over banks, the cycles each bank was blocked by
	// refresh: the lost-service metric.
	BankBusyCycles int64
	// RankBlockedCycles counts cycles during which EVERY bank was blocked
	// simultaneously (all-bank commands; ~0 for per-bank refresh with
	// staggered schedules).
	RankBlockedCycles int64

	Violations int
}

// NewRank builds per-bank profiles, banks, and schedulers for a rank of n
// banks; profiles are drawn independently per bank (real ranks mix chips).
func NewRank(n int, dist retention.CellDistribution, geomRows, geomCols int, seed int64,
	mkSched func(*retention.BankProfile) (core.Scheduler, error)) ([]*dram.Bank, []core.Scheduler, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("rank: need at least one bank, got %d", n)
	}
	banks := make([]*dram.Bank, n)
	scheds := make([]core.Scheduler, n)
	for b := 0; b < n; b++ {
		profile, err := retention.NewSampledProfile(
			device.BankGeometry{Rows: geomRows, Cols: geomCols}, dist, seed+int64(b)*7919)
		if err != nil {
			return nil, nil, err
		}
		bank, err := dram.NewBank(profile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			return nil, nil, err
		}
		sched, err := mkSched(profile)
		if err != nil {
			return nil, nil, err
		}
		banks[b] = bank
		scheds[b] = sched
	}
	return banks, scheds, nil
}

// Run simulates the rank's refresh traffic in the selected mode.
func Run(banks []*dram.Bank, scheds []core.Scheduler, opts Options) (Stats, error) {
	if len(banks) == 0 || len(banks) != len(scheds) {
		return Stats{}, fmt.Errorf("rank: need matching banks and schedulers, got %d/%d", len(banks), len(scheds))
	}
	if opts.Duration <= 0 || opts.TCK <= 0 {
		return Stats{}, fmt.Errorf("rank: Duration and TCK must be positive")
	}
	switch opts.Mode {
	case PerBank:
		return runPerBank(banks, scheds, opts)
	case AllBank:
		return runAllBank(banks, scheds, opts)
	default:
		return Stats{}, fmt.Errorf("rank: unknown mode %d", opts.Mode)
	}
}

// runPerBank reuses the single-bank simulator per bank and sums.
func runPerBank(banks []*dram.Bank, scheds []core.Scheduler, opts Options) (Stats, error) {
	st := Stats{Mode: PerBank.String(), Scheduler: scheds[0].Name(), Banks: len(banks)}
	for b := range banks {
		bs, err := sim.Run(banks[b], scheds[b], nil, sim.Options{Duration: opts.Duration, TCK: opts.TCK})
		if err != nil {
			return Stats{}, fmt.Errorf("rank: bank %d: %w", b, err)
		}
		st.RefreshCommands += bs.Refreshes()
		st.FullCommands += bs.FullRefreshes
		st.PartialCommands += bs.PartialRefreshes
		st.BankBusyCycles += bs.BusyCycles
		st.Violations += bs.Violations
	}
	// With golden-ratio staggering and sub-0.1% per-bank duty, simultaneous
	// blocking of every bank is measure-zero at this granularity.
	st.RankBlockedCycles = 0
	return st, nil
}

// rowEvent drives the all-bank timeline.
type rowEvent struct {
	t   float64
	row int
}

type rowHeap []rowEvent

func (h rowHeap) Len() int { return len(h) }
func (h rowHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].row < h[j].row
}
func (h rowHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *rowHeap) Push(x interface{}) { *h = append(*h, x.(rowEvent)) }
func (h *rowHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// runAllBank issues rank-wide commands: row r refreshes in every bank at the
// MINIMUM of the banks' periods for r, and the command's latency is the
// MAXIMUM of the per-bank operations.
func runAllBank(banks []*dram.Bank, scheds []core.Scheduler, opts Options) (Stats, error) {
	st := Stats{Mode: AllBank.String(), Scheduler: scheds[0].Name(), Banks: len(banks)}
	rows := banks[0].Geom.Rows
	for b := range banks {
		if banks[b].Geom.Rows != rows {
			return Stats{}, fmt.Errorf("rank: bank %d has %d rows, want %d", b, banks[b].Geom.Rows, rows)
		}
	}
	period := func(row int) float64 {
		min := scheds[0].Period(row)
		for _, s := range scheds[1:] {
			if p := s.Period(row); p < min {
				min = p
			}
		}
		return min
	}
	h := make(rowHeap, 0, rows)
	for r := 0; r < rows; r++ {
		p := period(r)
		if p <= 0 {
			return Stats{}, fmt.Errorf("rank: period for row %d is %g", r, p)
		}
		h = append(h, rowEvent{t: core.StaggerFrac(r) * p, row: r})
	}
	heap.Init(&h)
	for h.Len() > 0 {
		ev := heap.Pop(&h).(rowEvent)
		if ev.t >= opts.Duration {
			continue
		}
		maxCycles := 0
		anyFull := false
		for b := range banks {
			op := scheds[b].RefreshOp(ev.row, ev.t)
			if _, err := banks[b].Refresh(ev.row, ev.t, op.Alpha); err != nil {
				return Stats{}, err
			}
			if op.Cycles > maxCycles {
				maxCycles = op.Cycles
			}
			anyFull = anyFull || op.Full
		}
		st.RefreshCommands++
		if anyFull {
			st.FullCommands++
		} else {
			st.PartialCommands++
		}
		// Every bank is blocked for the command's (maximum) latency.
		st.BankBusyCycles += int64(maxCycles) * int64(len(banks))
		st.RankBlockedCycles += int64(maxCycles)
		heap.Push(&h, rowEvent{t: ev.t + period(ev.row), row: ev.row})
	}
	for b := range banks {
		if _, err := banks[b].CheckAll(opts.Duration); err != nil {
			return Stats{}, err
		}
		st.Violations += len(banks[b].Violations())
	}
	return st, nil
}
