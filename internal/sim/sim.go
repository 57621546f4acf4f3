// Package sim is the event-driven refresh simulator: it replays a memory
// trace against a DRAM bank under a refresh scheduling policy, issuing each
// row's refreshes at its binned period and accounting the cycles the bank
// spends busy refreshing - the paper's Figure 4 metric.
package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/retention"
	"vrldram/internal/scrub"
	"vrldram/internal/trace"
)

// Backend selects the simulator's runner implementation, in the same spirit
// as the SPICE solver's banded/dense switch: the scalar per-event loop over
// a binary heap is the checked reference, and every other backend is
// bit-identical to it (Stats and checkpoint blobs; the backend equivalence
// tests pin this across schedulers, scrub modes, and scenarios). The values
// are stored in fleet specs and manifests, so they never change meaning.
type Backend int

const (
	// BackendAuto picks the fastest exact runner for the run: fast-forward
	// when the run is eligible, otherwise the batched runner.
	BackendAuto Backend = 0
	// BackendScalar forces the reference per-event loop.
	BackendScalar Backend = 1
	// BackendBatch forces the batched runner, which drains the period lanes
	// of its event queue in (time, row)-sorted batches and applies
	// decay/sense/restore through the columnar dram kernels.
	BackendBatch Backend = 2
	// backendRetiredLUT (3) was the approximate lookup-table backend
	// ("batch-lut"). The value stays reserved so a stored spec carrying it is
	// refused by name instead of being re-run on an exact path.
	backendRetiredLUT Backend = 3
	// BackendFastForward runs the batched runner with the steady-state
	// fast-forward engine enabled on top: when the schedule is provably
	// quiescent - the scheduler's decisions exposed as live columns
	// (core.StreamView), scenario nominal (dram.SteadyModulator), no trace
	// record, scrub sweep, or checkpoint boundary before the horizon - whole
	// spans of refresh events are consumed by one macro kernel call
	// (dram.Bank.RefreshMacro) instead of per-batch drains, and any window
	// the kernel refuses runs on the batch path. It is exact: the kernel
	// replays the per-event arithmetic and folds ChargeRestored in the same
	// global order, so Stats and checkpoint blobs stay bit-identical to the
	// scalar reference.
	// BackendAuto resolves to it whenever the run is eligible.
	BackendFastForward Backend = 4
)

// String returns the backend's CLI name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendScalar:
		return "scalar"
	case BackendBatch:
		return "batch"
	case BackendFastForward:
		return "fast-forward"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// BackendNames lists the valid CLI backend names in menu order.
func BackendNames() []string {
	return []string{"auto", "scalar", "batch", "fast-forward"}
}

// Validate reports whether b is one of the listed backends. A stored 3 - the
// removed approximate "batch-lut" backend - is refused by name: re-running
// such a campaign on an exact backend would silently change its results.
func (b Backend) Validate() error {
	switch b {
	case BackendAuto, BackendScalar, BackendBatch, BackendFastForward:
		return nil
	case backendRetiredLUT:
		return fmt.Errorf("sim: backend 3 (batch-lut) was removed; its approximate results cannot be reproduced by an exact backend")
	default:
		return fmt.Errorf("sim: unknown backend %d (valid: %s)", int(b), strings.Join(BackendNames(), ", "))
	}
}

// ParseBackend maps a CLI name to its Backend. The empty string means Auto.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "", "auto":
		return BackendAuto, nil
	case "scalar":
		return BackendScalar, nil
	case "batch":
		return BackendBatch, nil
	case "fast-forward":
		return BackendFastForward, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(BackendNames(), ", "))
	}
}

// Options configures one simulation run.
type Options struct {
	Duration float64 // simulated time (s); the Figure 4 runs use the 768 ms bin hyperperiod
	TCK      float64 // DRAM clock period (s), for the overhead fraction

	// Backend selects the runner implementation; the zero value (Auto) runs
	// the batched-exact path.
	Backend Backend

	// ECC, when set, classifies every sub-limit sensing event into
	// correctable (single-bit) and uncorrectable errors instead of leaving
	// them as raw violations only.
	ECC *ecc.ChargeClassifier
	// UpgradeOnCorrect applies the AVATAR policy: when ECC corrects an error
	// in a row and the scheduler supports core.Upgrader, the row is demoted
	// to the fastest bin on the spot.
	UpgradeOnCorrect bool

	// Scrub, when set, interleaves an online patrol scrubber with the
	// refresh stream: patrol reads fire at the scrubber's own cadence
	// between refresh events (deferring with backoff while a refresh holds
	// the bank busy), and every ECC-classified sensing event is forwarded to
	// the scrubber's repair pipeline, which then owns the demote/upgrade
	// response (UpgradeOnCorrect is ignored). The scrubber must cover the
	// same number of rows as the bank, and it is included in checkpoints,
	// so checkpoint/resume stays bit-identical.
	Scrub *scrub.Scrubber

	// Scenario, when set, is the composed stress schedule the bank decays
	// under (an internal/scenario Env already attached to the bank via
	// SetModulator). The simulator does not drive it - stressors are pure
	// functions of time - but it is snapshotted into checkpoints and
	// validated on resume, so a run cannot silently resume under a
	// different schedule than the one that produced the snapshot.
	Scenario core.Snapshotter

	// CheckpointEvery, when positive, emits a Checkpoint to CheckpointSink
	// at every multiple of this simulated interval (seconds). Snapshots are
	// taken at event-queue boundaries, so resuming from one replays the
	// remaining events exactly as the uninterrupted run would have.
	CheckpointEvery float64
	// CheckpointSink receives periodic snapshots and, on cancellation, one
	// final snapshot of the state at the point the run stopped. A sink error
	// aborts the run. Required when CheckpointEvery > 0; checkpointing
	// requires the scheduler to implement core.Snapshotter.
	CheckpointSink func(*Checkpoint) error
	// Resume, when set, starts the run from the snapshot instead of from a
	// cold bank: the scheduler, bank, event queue, trace position, and
	// accumulated statistics are restored first. The bank, scheduler, and
	// trace source must be freshly constructed with the same configuration
	// that produced the snapshot.
	Resume *Checkpoint
}

// PendingEvent is one scheduled refresh in the simulator's event queue.
type PendingEvent struct {
	Time float64
	Row  int
}

// Checkpoint is the complete resumable state of a run, captured at an event
// boundary: feeding it back through Options.Resume (with identically
// constructed bank, scheduler, and trace source) continues the run to the
// same Stats, bit for bit, as if it had never stopped. Stats holds the raw
// accumulators only; the derived diagnostics (Violations, Guard,
// FaultsInjected) are recomputed from live state when the resumed run
// finishes. internal/checkpoint serializes this struct to disk.
type Checkpoint struct {
	Time      float64 // simulated time the snapshot was taken (s)
	Duration  float64 // the run's configured duration, for resume validation
	Scheduler string  // scheduler name, for resume validation

	Stats  Stats
	Events []PendingEvent // outstanding refresh events
	Bank   dram.State     // per-row charge, last-restore times, violations

	TraceRead     int64        // records consumed from the trace source
	HavePending   bool         // a look-ahead record is buffered
	Pending       trace.Record // the buffered look-ahead record
	LastTraceTime float64      // time-ordering watermark (-Inf before any record)

	BusyUntil float64 // time the bank is busy until (refresh in flight)

	SchedState []byte // the scheduler stack's core.Snapshotter blob
	ScrubState []byte // the patrol scrubber's core.Snapshotter blob (nil without one)
	// ScenarioState is the scenario Env's core.Snapshotter blob (nil when
	// the run had no composed stress schedule).
	ScenarioState []byte
}

// Stats is the outcome of one run.
type Stats struct {
	Scheduler string
	Duration  float64

	FullRefreshes    int64
	PartialRefreshes int64
	BusyCycles       int64 // cycles the bank was unavailable due to refresh
	Accesses         int64

	// ChargeRestored accumulates the normalized weakest-cell charge
	// delivered by refresh operations; the power model scales it to array
	// restore energy.
	ChargeRestored float64

	Violations int // raw sub-limit sensing events (must be 0 for a safe policy)

	// ECC classification of the violations (populated when Options.ECC is
	// set): corrected + uncorrectable = violations attributable to sensing.
	CorrectedErrors     int64
	UncorrectableErrors int64
	RowsUpgraded        int64

	// FaultsInjected counts the faults delivered by any core.FaultCounter in
	// the scheduler stack or the trace source (internal/fault injectors).
	FaultsInjected int64
	// Guard carries the degradation controller's counters when a
	// core.GuardReporter (internal/guard) is in the scheduler stack.
	Guard core.GuardStats
	// Scrub carries the patrol scrubber's counters when Options.Scrub ran.
	Scrub core.ScrubStats
}

// Refreshes returns the total refresh operation count.
func (s Stats) Refreshes() int64 { return s.FullRefreshes + s.PartialRefreshes }

// OverheadFraction returns the fraction of time the bank was refreshing.
func (s Stats) OverheadFraction(tck float64) float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.BusyCycles) * tck / s.Duration
}

// EncodeTo appends every Stats field to e in one fixed order. Both
// persisted forms use it - the service's "sta1" result payload and the stats
// section of a "sim3" checkpoint - so reordering fields changes both.
func (s Stats) EncodeTo(e *core.StateEncoder) {
	e.Bytes([]byte(s.Scheduler))
	e.Float(s.Duration)
	e.Int(s.FullRefreshes)
	e.Int(s.PartialRefreshes)
	e.Int(s.BusyCycles)
	e.Int(s.Accesses)
	e.Float(s.ChargeRestored)
	e.Int(int64(s.Violations))
	e.Int(s.CorrectedErrors)
	e.Int(s.UncorrectableErrors)
	e.Int(s.RowsUpgraded)
	e.Int(s.FaultsInjected)
	e.Int(s.Guard.Alarms)
	e.Int(s.Guard.Demotions)
	e.Int(s.Guard.Promotions)
	e.Int(s.Guard.Escalations)
	e.Int(s.Guard.BreakerTrips)
	e.Float(s.Guard.TimeDegraded)
	e.Int(s.Scrub.RowsPatrolled)
	e.Int(s.Scrub.Corrected)
	e.Int(s.Scrub.Uncorrectable)
	e.Int(s.Scrub.Reprofiles)
	e.Int(s.Scrub.RowsHealed)
	e.Int(s.Scrub.RowsRemapped)
	e.Int(s.Scrub.HardFails)
	e.Int(s.Scrub.BusyRetries)
	e.Int(s.Scrub.SLOMisses)
	e.Int(int64(s.Scrub.SparesLeft))
}

// DecodeStatsFrom reads the fields EncodeTo writes.
func DecodeStatsFrom(d *core.StateDecoder) Stats {
	var s Stats
	s.Scheduler = string(d.Bytes())
	s.Duration = d.Float()
	s.FullRefreshes = d.Int()
	s.PartialRefreshes = d.Int()
	s.BusyCycles = d.Int()
	s.Accesses = d.Int()
	s.ChargeRestored = d.Float()
	s.Violations = int(d.Int())
	s.CorrectedErrors = d.Int()
	s.UncorrectableErrors = d.Int()
	s.RowsUpgraded = d.Int()
	s.FaultsInjected = d.Int()
	s.Guard.Alarms = d.Int()
	s.Guard.Demotions = d.Int()
	s.Guard.Promotions = d.Int()
	s.Guard.Escalations = d.Int()
	s.Guard.BreakerTrips = d.Int()
	s.Guard.TimeDegraded = d.Float()
	s.Scrub.RowsPatrolled = d.Int()
	s.Scrub.Corrected = d.Int()
	s.Scrub.Uncorrectable = d.Int()
	s.Scrub.Reprofiles = d.Int()
	s.Scrub.RowsHealed = d.Int()
	s.Scrub.RowsRemapped = d.Int()
	s.Scrub.HardFails = d.Int()
	s.Scrub.BusyRetries = d.Int()
	s.Scrub.SLOMisses = d.Int()
	s.Scrub.SparesLeft = int(d.Int())
	return s
}

// refresh event queue -------------------------------------------------------

// event aliases dram.StreamEvent so the batch queue's period lanes can be
// handed to the fast-forward kernel (dram.Bank.RefreshMacro) without
// copying or converting.
type event = dram.StreamEvent

// eventHeap is a binary min-heap ordered by (time, row): the scalar
// runner's queue, and the reference the batch queue's tests compare
// against. It deliberately does NOT implement container/heap: that
// interface boxes every pushed and popped element into an interface{},
// costing two heap allocations per refresh event in the simulator's
// hottest loop. The inlined sift functions below keep events on the slice.
// The (time, row) order is total - no two events share both fields - so
// the pop sequence is uniquely determined by the comparator and
// independent of the heap's internal layout.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].T != h[j].T {
		return h[i].T < h[j].T
	}
	return h[i].Row < h[j].Row
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h.less(right, left) {
			min = right
		}
		if !h.less(min, i) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	(*h).siftDown(0)
	return top
}

// reset empties the heap, keeping its allocation.
func (h *eventHeap) reset() { *h = (*h)[:0] }

func (h *eventHeap) size() int { return len(*h) }

// pushNext implements refreshQueue; the heap takes no advantage of the
// period hint.
func (h *eventHeap) pushNext(e event, _ float64) { h.push(e) }

func (h *eventHeap) peekTime() float64 {
	if len(*h) == 0 {
		return math.Inf(1)
	}
	return (*h)[0].T
}

// pendingSorted returns the outstanding events in canonical (time, row)
// order. Checkpoints store this form, so checkpoint blobs are independent of
// the queue implementation and of any queue-internal layout.
func (h *eventHeap) pendingSorted() []PendingEvent {
	out := make([]PendingEvent, 0, len(*h))
	for _, e := range *h {
		out = append(out, PendingEvent{Time: e.T, Row: e.Row})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Row < out[j].Row
	})
	return out
}

// Scratch holds the simulator's reusable per-run allocations - the refresh
// event queues (the binary heap for the scalar backend, the period lanes for
// the batched one) and the batch gather columns. A Scratch may be reused
// across any number of sequential runs; concurrent runs need one Scratch
// each. The zero value is usable.
type Scratch struct {
	queue eventHeap
	batch batchQueue

	// Batch gather columns: one batch window's worth of (row, time) pairs
	// and their sensed charges.
	bRows   []int
	bTimes  []float64
	bCharge []float64

	// ffScratch is the fast-forward kernel's window columns and decay memo.
	// Keeping it on the Scratch (not the bank) lets the memo stay warm across
	// sequential runs that share a Scratch - the kernel invalidates any row
	// whose retention changed, so reuse across different banks is safe.
	ffScratch dram.StreamScratch
	// ffWindows counts fast-forward kernel windows executed by the last run
	// (a debug/observability counter, deliberately NOT part of Stats - Stats
	// must stay bit-identical across backends).
	ffWindows int
}

// refreshQueue is the queue contract shared by the scalar and batched
// runners; the prologue (initial fill, resume, checkpoint capture) runs
// against it so both backends share one implementation of everything that
// is not the hot loop.
type refreshQueue interface {
	reset()
	size() int
	push(event)
	// pushNext enqueues a re-push scheduled delta after the event being
	// processed; the batched queue uses the hint to keep per-period FIFO
	// lanes sorted by construction, the scalar queue ignores it.
	pushNext(e event, delta float64)
	pop() event
	peekTime() float64
	pendingSorted() []PendingEvent
}

// scratchPool recycles Scratch buffers across Run/RunContext calls, so even
// callers that never touch the Reusable API run allocation-lean in steady
// state (sweep cells, benchmark loops, campaign experiments).
var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// Reusable is an explicitly reusable simulation context: it owns a Scratch
// and reuses it on every run, for callers that want deterministic buffer
// reuse (per-worker contexts in a parallel sweep, benchmark loops) instead
// of the package-level pool. Not safe for concurrent use; give each
// goroutine its own Reusable.
type Reusable struct {
	scratch Scratch
}

// NewReusable returns a Reusable pre-sized for banks with the given number
// of rows.
func NewReusable(rows int) *Reusable {
	if rows < 0 {
		rows = 0
	}
	return &Reusable{scratch: Scratch{queue: make(eventHeap, 0, rows)}}
}

// Run is Run with this context's buffers.
func (r *Reusable) Run(bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options) (Stats, error) {
	return runContext(context.Background(), bank, sched, src, opts, &r.scratch)
}

// RunContext is RunContext with this context's buffers.
func (r *Reusable) RunContext(ctx context.Context, bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options) (Stats, error) {
	return runContext(ctx, bank, sched, src, opts, &r.scratch)
}

// Run simulates the bank under the scheduler while replaying the trace
// source. Trace records and refreshes interleave in time order; accesses
// notify the scheduler (for VRL-Access) and fully restore the accessed row.
//
// On a mid-run error Run returns the partially-populated Stats accumulated
// so far alongside the error, so a failing run is still debuggable.
func Run(bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options) (Stats, error) {
	return RunContext(context.Background(), bank, sched, src, opts)
}

// RunContext is Run with cooperative cancellation and crash-safety: the
// context is checked at event-queue granularity, and a cancelled or
// deadline-exceeded run stops at the next event boundary, emits a final
// Checkpoint to Options.CheckpointSink (when one is configured), and
// returns the partial Stats with an error wrapping the context's. Use
// errors.Is(err, context.Canceled) to distinguish an interrupted run from a
// failed one.
func RunContext(ctx context.Context, bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options) (Stats, error) {
	scratch := scratchPool.Get().(*Scratch)
	st, err := runContext(ctx, bank, sched, src, opts, scratch)
	scratchPool.Put(scratch)
	return st, err
}

// runContext is the simulator proper; scratch supplies the reusable buffers.
func runContext(ctx context.Context, bank *dram.Bank, sched core.Scheduler, src trace.Source, opts Options, scratch *Scratch) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Duration <= 0 {
		return Stats{}, fmt.Errorf("sim: duration must be positive, got %g", opts.Duration)
	}
	if opts.TCK <= 0 {
		return Stats{}, fmt.Errorf("sim: TCK must be positive, got %g", opts.TCK)
	}
	if err := opts.Backend.Validate(); err != nil {
		return Stats{}, err
	}
	if opts.CheckpointEvery < 0 {
		return Stats{}, fmt.Errorf("sim: CheckpointEvery must be non-negative, got %g", opts.CheckpointEvery)
	}
	if opts.CheckpointEvery > 0 && opts.CheckpointSink == nil {
		return Stats{}, fmt.Errorf("sim: CheckpointEvery set without a CheckpointSink")
	}
	if opts.Scrub != nil && opts.Scrub.Rows() != bank.Geom.Rows {
		return Stats{}, fmt.Errorf("sim: scrubber patrols %d rows, bank has %d", opts.Scrub.Rows(), bank.Geom.Rows)
	}
	var snap core.Snapshotter
	if opts.CheckpointSink != nil || opts.Resume != nil {
		var ok bool
		snap, ok = sched.(core.Snapshotter)
		if !ok {
			return Stats{}, fmt.Errorf("sim: scheduler %s does not implement core.Snapshotter; checkpoint/resume unavailable", sched.Name())
		}
		// Fail fast on stacks whose inner layers cannot snapshot (e.g. a
		// guard over a fault injector) instead of dying at the first
		// checkpoint boundary.
		if _, err := snap.SnapshotState(); err != nil {
			return Stats{}, fmt.Errorf("sim: scheduler state not snapshottable: %w", err)
		}
	}
	if src == nil {
		src = trace.Empty{}
	}
	st := Stats{Scheduler: sched.Name(), Duration: opts.Duration}

	monitor, hasMonitor := sched.(core.SenseMonitor)
	// finalize fills the diagnostics that remain meaningful even when the
	// run aborts partway: the violations recorded so far, injected-fault
	// counts, and the guard's counters at time now.
	finalize := func(now float64) {
		st.Violations = len(bank.Violations())
		if fc, ok := sched.(core.FaultCounter); ok {
			st.FaultsInjected += fc.FaultsInjected()
		}
		if fc, ok := src.(core.FaultCounter); ok {
			st.FaultsInjected += fc.FaultsInjected()
		}
		if gr, ok := sched.(core.GuardReporter); ok {
			st.Guard = gr.GuardSnapshot(now)
		}
		if opts.Scrub != nil {
			st.Scrub = opts.Scrub.ScrubSnapshot(now)
		}
	}

	rows := bank.Geom.Rows
	// Backend split: both runners share the prologue, drains, checkpointing,
	// and epilogue through the refreshQueue interface; only the hot loop
	// differs. BackendAuto is the batched runner - it is bit-identical to
	// the scalar reference, so there is nothing to trade away.
	batched := opts.Backend != BackendScalar
	var q refreshQueue
	if batched {
		q = &scratch.batch
	} else {
		q = &scratch.queue
	}
	q.reset()
	scratch.ffWindows = 0
	var (
		next          trace.Record
		havePending   bool
		lastTraceTime = math.Inf(-1)
		traceRead     int64 // records consumed from src, for checkpointing
		now           float64
		busyUntil     float64 // bank unavailable for patrol reads until here
	)

	if cp := opts.Resume; cp != nil {
		if cp.Duration != opts.Duration {
			return st, fmt.Errorf("sim: resume: checkpoint duration %g, options say %g", cp.Duration, opts.Duration)
		}
		if cp.Scheduler != sched.Name() {
			return st, fmt.Errorf("sim: resume: checkpoint is for scheduler %q, got %q", cp.Scheduler, sched.Name())
		}
		if (cp.ScrubState != nil) != (opts.Scrub != nil) {
			return st, fmt.Errorf("sim: resume: checkpoint and options disagree about a patrol scrubber")
		}
		if (cp.ScenarioState != nil) != (opts.Scenario != nil) {
			return st, fmt.Errorf("sim: resume: checkpoint and options disagree about a stress scenario")
		}
		if err := snap.RestoreState(cp.SchedState); err != nil {
			return st, fmt.Errorf("sim: resume: %w", err)
		}
		if opts.Scrub != nil {
			if err := opts.Scrub.RestoreState(cp.ScrubState); err != nil {
				return st, fmt.Errorf("sim: resume: %w", err)
			}
		}
		if opts.Scenario != nil {
			if err := opts.Scenario.RestoreState(cp.ScenarioState); err != nil {
				return st, fmt.Errorf("sim: resume: %w", err)
			}
		}
		if err := bank.SetState(cp.Bank); err != nil {
			return st, fmt.Errorf("sim: resume: %w", err)
		}
		st = cp.Stats
		st.Scheduler = sched.Name()
		st.Duration = opts.Duration
		// The queues and the batched sense kernel rely on the one-
		// outstanding-event-per-row invariant; a corrupt checkpoint must
		// fail here, not silently diverge later.
		seenRow := make([]bool, rows)
		for _, ev := range cp.Events {
			if ev.Row < 0 || ev.Row >= rows {
				return st, fmt.Errorf("sim: resume: pending event for row %d outside [0,%d)", ev.Row, rows)
			}
			if seenRow[ev.Row] {
				return st, fmt.Errorf("sim: resume: duplicate pending event for row %d", ev.Row)
			}
			seenRow[ev.Row] = true
			q.push(event{T: ev.Time, Row: ev.Row})
		}
		// Re-position the (freshly opened) trace source by replaying the
		// records the checkpointed run had already consumed; the buffered
		// look-ahead record itself is restored from the snapshot verbatim.
		for i := int64(0); i < cp.TraceRead; i++ {
			if _, err := src.Next(); err != nil {
				if err == io.EOF {
					err = fmt.Errorf("sim: resume: trace ended after %d records, checkpoint consumed %d", i, cp.TraceRead)
				}
				finalize(cp.Time)
				return st, err
			}
		}
		traceRead = cp.TraceRead
		havePending = cp.HavePending
		next = cp.Pending
		lastTraceTime = cp.LastTraceTime
		now = cp.Time
		busyUntil = cp.BusyUntil
	} else {
		for r := 0; r < rows; r++ {
			p := sched.Period(r)
			if !(p > 0) { // rejects NaN too
				return Stats{}, fmt.Errorf("sim: scheduler period for row %d is %g", r, p)
			}
			q.push(event{T: core.StaggerFrac(r) * p, Row: r})
		}
		// Trace look-ahead record. The readers in internal/trace enforce time
		// ordering themselves, but a custom Source is only trusted as far as
		// the check below: a record whose timestamp precedes its
		// predecessor's would silently mis-interleave with the refresh
		// events, so it is an error.
		var err error
		next, err = src.Next()
		havePending = err == nil
		if err == nil {
			traceRead++
		} else if err != io.EOF {
			finalize(0)
			return st, err
		}
	}

	// drainScrub runs every patrol tick due at or before until, interleaved
	// with the trace so accesses and patrol reads stay in time order. It runs
	// BEFORE drainTrace(until) at each event, which keeps the invariant that a
	// patrol read never observes a bank mutation from its own future.
	var drainTrace func(until float64) error
	drainScrub := func(until float64) error {
		for opts.Scrub != nil {
			due := opts.Scrub.NextDue()
			if due > until || due >= opts.Duration {
				return nil
			}
			if err := drainTrace(due); err != nil {
				return err
			}
			if _, err := opts.Scrub.Tick(due, busyUntil); err != nil {
				return err
			}
		}
		return nil
	}

	drainTrace = func(until float64) error {
		for havePending && next.Time <= until {
			if next.Time < lastTraceTime {
				return fmt.Errorf("sim: trace source out of order: record at t=%.9g after t=%.9g", next.Time, lastTraceTime)
			}
			lastTraceTime = next.Time
			if next.Time >= opts.Duration {
				havePending = false
				break
			}
			if next.Row >= 0 && next.Row < rows {
				if _, err := bank.Access(next.Row, next.Time); err != nil {
					return err
				}
				sched.OnAccess(next.Row, next.Time)
				st.Accesses++
			}
			var err error
			next, err = src.Next()
			if err == io.EOF {
				havePending = false
			} else if err != nil {
				return err
			}
			if err == nil {
				traceRead++
			}
		}
		return nil
	}

	// capture snapshots the run's state at an event boundary. It is
	// read-only, so taking (or not taking) a snapshot cannot perturb the
	// simulation - the property the resume-equivalence tests rely on.
	capture := func(at float64) (*Checkpoint, error) {
		blob, err := snap.SnapshotState()
		if err != nil {
			return nil, err
		}
		cp := &Checkpoint{
			Time:          at,
			Duration:      opts.Duration,
			Scheduler:     sched.Name(),
			Stats:         st,
			Events:        q.pendingSorted(),
			Bank:          bank.State(),
			TraceRead:     traceRead,
			HavePending:   havePending,
			LastTraceTime: lastTraceTime,
			BusyUntil:     busyUntil,
			SchedState:    blob,
		}
		if opts.Scrub != nil {
			if cp.ScrubState, err = opts.Scrub.SnapshotState(); err != nil {
				return nil, err
			}
		}
		if opts.Scenario != nil {
			if cp.ScenarioState, err = opts.Scenario.SnapshotState(); err != nil {
				return nil, err
			}
		}
		if havePending {
			cp.Pending = next
		}
		return cp, nil
	}

	nextCP := math.Inf(1)
	if opts.CheckpointEvery > 0 {
		// Continue the absolute checkpoint cadence across resumes: the next
		// boundary is the first multiple of CheckpointEvery past the start.
		nextCP = opts.CheckpointEvery * (math.Floor(now/opts.CheckpointEvery) + 1)
	}

	// postRefresh is the shared tail of one refresh event - scheduler
	// feedback, ECC classification and repair routing, accounting, and the
	// row's next refresh - identical for both backends. It returns the time
	// of the next event it pushed for the row, so the batched loop can track
	// the earliest queued time without re-peeking the queue per entry. The
	// row's period is read after any demotion this event's ECC outcome just
	// applied.
	postRefresh := func(row int, t float64, op core.Op, res dram.RefreshResult) (float64, error) {
		if hasMonitor {
			// Report before rescheduling so a demotion or promotion decided
			// here shapes the row's very next refresh interval.
			monitor.OnSense(row, t, res.ChargeBefore)
		}
		if opts.ECC != nil && res.ChargeBefore < retention.SenseLimit {
			outcome := opts.ECC.Classify(res.ChargeBefore)
			switch outcome {
			case ecc.Corrected:
				st.CorrectedErrors++
			case ecc.Uncorrectable:
				st.UncorrectableErrors++
			}
			if opts.Scrub != nil {
				// The scrubber owns the repair response: a classified sense is
				// a detection event exactly like a patrol read, so the pipeline
				// converges no matter which path sees the sag first.
				if err := opts.Scrub.OnEccEvent(row, outcome); err != nil {
					return 0, err
				}
			} else if outcome == ecc.Corrected && opts.UpgradeOnCorrect {
				if up, ok := sched.(core.Upgrader); ok {
					up.Upgrade(row)
					st.RowsUpgraded++
				}
			}
		}
		if op.Full {
			st.FullRefreshes++
		} else {
			st.PartialRefreshes++
		}
		st.BusyCycles += int64(op.Cycles)
		st.ChargeRestored += res.ChargeRestored
		busyUntil = t + float64(op.Cycles)*opts.TCK
		p := sched.Period(row)
		next := t + p
		if !(next > t) {
			// A period that is zero, negative, NaN or below t's resolution
			// would re-queue the row at t itself, forever.
			return 0, fmt.Errorf("sim: scheduler period for row %d is %g", row, p)
		}
		q.pushNext(event{T: next, Row: row}, p)
		return next, nil
	}

	// processEvent runs one full scalar refresh: sense+restore through the
	// scalar bank path, then the shared tail. The scalar backend runs on it
	// exclusively; the batched backend uses it for events a period shorter
	// than the batch window pushes back into the open batch.
	processEvent := func(ev event) error {
		op := sched.RefreshOp(ev.Row, ev.T)
		res, err := bank.Refresh(ev.Row, ev.T, op.Alpha)
		if err != nil {
			return err
		}
		_, err = postRefresh(ev.Row, ev.T, op, res)
		return err
	}

	// Fast-forward eligibility is a run-level property: every dynamic
	// mutation path into the refresh pipeline must be statically absent
	// (monitors and ECC can reshape schedules mid-flight; a non-streamable
	// decay or an opaque modulator would change the arithmetic) and the
	// scheduler must expose its decision columns. Those columns change only
	// through RefreshOp, OnAccess and Upgrade; OnAccess fires at trace
	// records and Upgrade at ECC or scrub responses, and every window stops
	// at the next trace record and scrub tick. Per-window caps (trace,
	// scrub, checkpoints, scenario change-points) are handled by the horizon
	// computation inside the loop.
	streamer, hasView := sched.(core.OpStreamer)
	ffEligible := hasView &&
		(opts.Backend == BackendAuto || opts.Backend == BackendFastForward) &&
		opts.ECC == nil && !hasMonitor && bank.Streamable()
	var view core.StreamView
	if ffEligible {
		view = streamer.StreamView()
	}
	var ffMod dram.SteadyModulator
	if mod := bank.ActiveModulator(); mod != nil && ffEligible {
		ffMod, ffEligible = mod.(dram.SteadyModulator)
	}

	bq := &scratch.batch
	for q.size() > 0 {
		if err := ctx.Err(); err != nil {
			// A final snapshot lets the caller persist the state the run
			// stopped in, so an interrupted run resumes instead of restarts.
			if opts.CheckpointSink != nil {
				cp, cerr := capture(now)
				if cerr == nil {
					cerr = opts.CheckpointSink(cp)
				}
				if cerr != nil {
					finalize(now)
					return st, fmt.Errorf("sim: final checkpoint at t=%.6g: %v (run cancelled: %w)", now, cerr, err)
				}
			}
			finalize(now)
			return st, fmt.Errorf("sim: cancelled at t=%.6g: %w", now, err)
		}
		for opts.CheckpointSink != nil && nextCP < opts.Duration && q.peekTime() >= nextCP {
			cp, err := capture(nextCP)
			if err == nil {
				err = opts.CheckpointSink(cp)
			}
			if err != nil {
				finalize(now)
				return st, fmt.Errorf("sim: checkpoint at t=%.6g: %w", nextCP, err)
			}
			nextCP += opts.CheckpointEvery
		}
		if !batched {
			ev := q.pop()
			if ev.T >= opts.Duration {
				continue
			}
			now = ev.T
			if err := drainScrub(ev.T); err != nil {
				finalize(ev.T)
				return st, err
			}
			if err := drainTrace(ev.T); err != nil {
				finalize(ev.T)
				return st, err
			}
			if err := processEvent(ev); err != nil {
				finalize(ev.T)
				return st, err
			}
			continue
		}

		// Batched: drain every event in the batch window up to the nearest
		// non-refresh boundary, sense the whole batch through the columnar
		// kernel, then apply the ops in (time, row) order. The horizon h is
		// capped below every boundary where non-refresh activity (a
		// checkpoint, a patrol tick, a trace record) could interleave, so no
		// bank state a batched sense depends on can change mid-batch.
		tFirst := q.peekTime()
		if tFirst >= opts.Duration {
			// tFirst is the queue minimum, so no outstanding event can fire
			// inside the run window anymore; the scalar path discards them
			// one pop at a time, with identical effect.
			break
		}
		if err := drainScrub(tFirst); err != nil {
			finalize(tFirst)
			return st, err
		}
		if err := drainTrace(tFirst); err != nil {
			finalize(tFirst)
			return st, err
		}
		if ffEligible {
			// Compose the quiescence horizon: nothing non-refresh may be able
			// to fire strictly below it. Sources that do not apply contribute
			// +Inf.
			cpCap, scrubDue, traceNext := ffInf(), ffInf(), ffInf()
			if opts.CheckpointSink != nil {
				cpCap = nextCP
			}
			if opts.Scrub != nil {
				scrubDue = opts.Scrub.NextDue()
			}
			if havePending {
				traceNext = next.Time
			}
			hf := ffHorizon(opts.Duration, cpCap, scrubDue, traceNext)
			// Engagement gate, purely a cost heuristic (any choice keeps the
			// output bit-identical): the kernel pays a full scan of every
			// lane row per window, so a window too short for even one lap of
			// the densest lane - the norm on trace-dense runs, where the next
			// record caps the horizon microseconds away - must go straight to
			// the batch path instead of thrashing that scan per record. The
			// gate runs before the scenario probe below, which scans every
			// row too; the probe only lowers hf, so the gate is re-checked
			// after it.
			minLap := ffMinLap(bq.lanes)
			if hf-tFirst >= minLap && ffMod != nil {
				// The scenario must be exactly nominal over every decay
				// interval the window can evaluate, which reach back to the
				// oldest last-restore time, not just to tFirst.
				if u := ffMod.NominalUntil(bank.MinLastRestore()); u < hf {
					hf = u
				}
			}
			if hf-tFirst >= minLap && bq.mixedQuietBelow(hf) {
				// The macro kernel refuses (cleanly, before consuming or
				// mutating anything) any lane shape outside its verified
				// regular-lap structure; such a window, like one whose lanes
				// held nothing below hf, falls through to the batch path,
				// which guarantees progress.
				res, err := bank.RefreshMacro(&scratch.ffScratch, bq.lanes, hf, &view, st.ChargeRestored)
				if err != nil {
					finalize(now)
					return st, err
				}
				if res.Events > 0 {
					// The kernel replayed res.Events iterations of the
					// refresh pipeline; fold its accounting into Stats
					// exactly as the per-event tail would have. Cycle counts
					// are integer sums (associative, so the bulk product is
					// exact); ChargeRestored was threaded through the kernel
					// in event order and comes back as the new accumulator
					// value.
					st.FullRefreshes += res.Fulls
					st.PartialRefreshes += res.Partials
					st.BusyCycles += res.Fulls*int64(view.Full.Cycles) + res.Partials*int64(view.Partial.Cycles)
					st.ChargeRestored = res.ChargeRestored
					busyUntil = res.LastTime + float64(res.LastCycles)*opts.TCK
					now = res.LastTime
					scratch.ffWindows++
					continue
				}
			}
		}
		h := tFirst + batchWindow
		if opts.Duration < h {
			h = opts.Duration
		}
		if opts.CheckpointSink != nil && nextCP < h {
			h = nextCP
		}
		if opts.Scrub != nil {
			if due := opts.Scrub.NextDue(); due < h {
				h = due
			}
		}
		if havePending && next.Time < h {
			h = next.Time
		}
		scratch.bRows, scratch.bTimes = bq.popBatch(h, scratch.bRows[:0], scratch.bTimes[:0])
		bRows, bTimes := scratch.bRows, scratch.bTimes
		n := len(bRows)
		if n == 0 {
			// The drains above leave every cap on h strictly above tFirst,
			// the queue minimum, so the batch holds at least that event.
			finalize(tFirst)
			return st, fmt.Errorf("sim: empty batch: horizon %.17g does not exceed the earliest queued event %.17g", h, tFirst)
		}
		if cap(scratch.bCharge) < n {
			scratch.bCharge = make([]float64, n)
		}
		bCharge := scratch.bCharge[:n]
		if err := bank.ChargeAtBatch(bRows, bTimes, bCharge); err != nil {
			finalize(tFirst)
			return st, err
		}
		// qNext tracks a lower bound on the earliest queued event time so
		// the merge check below is one float compare per entry instead of a
		// queue peek. Re-pushes from postRefresh are folded in as they
		// happen; a full peek runs only when the bound says a queued event
		// might precede the next batch entry.
		qNext := bq.peekTime()
		for i := 0; i < n; i++ {
			evT, evRow := bTimes[i], bRows[i]
			// A row whose period is shorter than the batch window can push
			// its next refresh back inside the open batch window; process
			// those scalar-style so the total (time, row) order - and with
			// it every scheduler and accounting interaction - is preserved.
			// Such a row cannot still be in the batch tail (one outstanding
			// event per row), so the precomputed senses stay valid.
			for qNext <= evT && bq.size() > 0 {
				pe := bq.peek()
				if pe.T > evT || (pe.T == evT && pe.Row > evRow) {
					qNext = pe.T
					break
				}
				bq.pop()
				now = pe.T
				if err := processEvent(pe); err != nil {
					finalize(pe.T)
					return st, err
				}
				qNext = bq.peekTime()
			}
			now = evT
			op := sched.RefreshOp(evRow, evT)
			res, err := bank.RestoreSensed(evRow, evT, op.Alpha, bCharge[i])
			if err != nil {
				finalize(evT)
				return st, err
			}
			nt, err := postRefresh(evRow, evT, op, res)
			if err != nil {
				finalize(evT)
				return st, err
			}
			if nt < qNext {
				qNext = nt
			}
		}
	}
	if err := drainScrub(opts.Duration); err != nil {
		finalize(opts.Duration)
		return st, err
	}
	if err := drainTrace(opts.Duration); err != nil {
		finalize(opts.Duration)
		return st, err
	}
	// Closing integrity sweep: every row must still be sensable. A failed
	// sweep still returns the diagnostics accumulated so far.
	if _, err := bank.CheckAll(opts.Duration); err != nil {
		finalize(opts.Duration)
		return st, err
	}
	finalize(opts.Duration)
	return st, nil
}
