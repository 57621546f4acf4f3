// Package memctrl is a command-level DRAM memory controller model: the layer
// that turns the paper's refresh-overhead numbers into end-performance
// impact. A bank is unavailable while a refresh operation is in flight
// (the tRFC window the paper shrinks), so pending reads and writes queue up
// behind it; this model measures by how much.
//
// The controller implements an FR-FCFS-style front end over one or more
// banks:
//
//   - an open-row (row buffer) policy with ACT/PRE/CAS timing,
//   - row-hit-first scheduling among queued requests,
//   - refresh operations injected by a core.Scheduler at each row's binned
//     refresh instant, blocking the row's bank (or subarray) for the
//     operation's tRFC, issued per bank or rank-wide,
//   - charge tracking through the dram.Bank model, so a mis-scheduled
//     refresh policy still surfaces as data-integrity violations here, and
//     activations that fully restore a row (the property VRL-Access uses).
//
// Latencies are in DRAM clock cycles, consistent with the rest of the
// repository (tCK from device.Params).
package memctrl

import (
	"fmt"
	"slices"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/trace"
)

// Timing holds the command timing constraints in DRAM cycles; defaults are
// DDR3-1600-like and deliberately simple: a row miss costs
// tRP + tRCD + tCL, a row hit tCL, a write adds tWR to the precharge point.
type Timing struct {
	TRCD int // ACT to CAS
	TCL  int // CAS to data
	TRP  int // PRE to ACT
	TRAS int // ACT to PRE (minimum row-open time)
	TWR  int // write recovery before PRE
	TBL  int // burst length on the bus
	// TCloseIdle is the adaptive page policy's idle timeout: a row left open
	// this many cycles with no pending work is precharged in the background
	// (its tRP hides in the idle window). 0 disables auto-close.
	TCloseIdle int
}

// DefaultTiming returns the DDR3-1600-like constraint set.
func DefaultTiming() Timing {
	return Timing{TRCD: 11, TCL: 11, TRP: 11, TRAS: 28, TWR: 12, TBL: 4, TCloseIdle: 64}
}

// Validate reports the first non-positive constraint.
func (t Timing) Validate() error {
	checks := []struct {
		v    int
		name string
	}{
		{t.TRCD, "TRCD"}, {t.TCL, "TCL"}, {t.TRP, "TRP"},
		{t.TRAS, "TRAS"}, {t.TWR, "TWR"}, {t.TBL, "TBL"},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("memctrl: %s must be positive, got %d", c.name, c.v)
		}
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("memctrl: TRAS %d must cover TRCD %d", t.TRAS, t.TRCD)
	}
	if t.TCloseIdle < 0 {
		return fmt.Errorf("memctrl: TCloseIdle must be non-negative, got %d", t.TCloseIdle)
	}
	return nil
}

// RefreshGranularity selects the refresh command scope.
type RefreshGranularity int

// Refresh scopes.
const (
	// PerBankRefresh refreshes each bank on its own schedule; other banks
	// keep serving requests.
	PerBankRefresh RefreshGranularity = iota
	// AllBankRefresh issues rank-wide commands: row r refreshes in every
	// bank at the minimum of their periods, and every bank is blocked until
	// the slowest bank's operation finishes. This is the request-side
	// counterpart of internal/rank's refresh-only accounting.
	AllBankRefresh
)

// String names the granularity.
func (g RefreshGranularity) String() string {
	switch g {
	case PerBankRefresh:
		return "per-bank"
	case AllBankRefresh:
		return "all-bank"
	default:
		return fmt.Sprintf("RefreshGranularity(%d)", int(g))
	}
}

// Request is one memory request presented to the controller.
type Request struct {
	Arrival int64 // cycle of arrival
	Bank    int
	Row     int // row within the bank
	Write   bool

	// Filled by the controller.
	Start  int64 // cycle the bank begins serving it
	Finish int64 // cycle its data completes
	RowHit bool
}

// Latency returns the request's queuing + service latency in cycles.
func (r Request) Latency() int64 { return r.Finish - r.Arrival }

// Stats summarizes one controller run.
type Stats struct {
	Scheduler string // the first bank's policy

	Requests       int64
	Reads          int64
	Writes         int64
	RowHits        int64
	RowHitRate     float64
	AvgLatency     float64 // cycles
	P95Latency     int64   // cycles
	MaxLatency     int64   // cycles
	AvgReadLatency float64

	// RefreshCommands counts refresh commands; an all-bank command counts once.
	RefreshCommands int64
	// RefreshBusyCycles sums the cycles each bank spent refreshing.
	RefreshBusyCycles  int64
	RefreshesPostponed int64 // elastic postponement steps taken
	// StalledByRefresh counts requests that arrived while a refresh held
	// their bank (or subarray), or queued there behind one.
	StalledByRefresh int64

	Violations int // summed over banks
}

// Options configures a run.
type Options struct {
	Timing   Timing
	TCK      float64 // seconds per cycle
	Duration float64 // simulated seconds

	// ElasticSlack enables elastic refresh (Stuecheli et al., MICRO'10 /
	// the JEDEC postpone allowance): a due refresh may be postponed while
	// requests are pending, by up to this fraction of the row's refresh
	// period (JEDEC allows 8 of 8192 tREFI slots, i.e. ~1/8 when debt is
	// concentrated). 0 disables postponement. The next refresh is scheduled
	// from the original due time, so debt does not accumulate. The charge
	// guardband absorbs the extra decay; the bank model verifies it.
	// Postponement applies to per-bank commands only.
	ElasticSlack float64

	// Granularity selects per-bank (the zero value) or all-bank commands.
	Granularity RefreshGranularity

	// Subarrays splits each bank's rows into this many contiguous,
	// independent subarrays with their own row buffers (subarray-level
	// parallelism, Kim et al. ISCA'12 - reference [21] of the paper): a
	// refresh blocks only its own subarray while the others keep serving
	// requests. SALP hides refreshes from other subarrays, VRL shortens the
	// blocking inside the refreshed one. The model is SALP-ideal (no
	// shared-bus serialization), so its results are an upper bound on the
	// technique. 0 or 1 means one row buffer per bank.
	Subarrays int
}

// validate reports the first unusable option for the given rank.
func (o Options) validate(banks []*dram.Bank, scheds []core.Scheduler) error {
	if len(banks) == 0 || len(banks) != len(scheds) {
		return fmt.Errorf("memctrl: need matching banks and schedulers, got %d/%d", len(banks), len(scheds))
	}
	rows := banks[0].Geom.Rows
	for b := 1; b < len(banks); b++ {
		if banks[b].Geom.Rows != rows {
			return fmt.Errorf("memctrl: bank %d geometry mismatch", b)
		}
	}
	if err := o.Timing.Validate(); err != nil {
		return err
	}
	if o.TCK <= 0 || o.Duration <= 0 {
		return fmt.Errorf("memctrl: TCK and Duration must be positive")
	}
	if o.ElasticSlack < 0 || o.ElasticSlack > 0.5 {
		return fmt.Errorf("memctrl: ElasticSlack %g outside [0, 0.5]", o.ElasticSlack)
	}
	switch o.Granularity {
	case PerBankRefresh:
	case AllBankRefresh:
		if o.ElasticSlack > 0 {
			return fmt.Errorf("memctrl: elastic refresh postpones per-bank commands only")
		}
	default:
		return fmt.Errorf("memctrl: unknown granularity %d", o.Granularity)
	}
	if o.Subarrays < 0 || o.Subarrays > rows {
		return fmt.Errorf("memctrl: subarray count %d outside [0,%d]", o.Subarrays, rows)
	}
	return nil
}

// refreshEvent is a refresh command on the timeline: row `row` of bank
// `bank`, or of every bank when bank < 0 (an all-bank command).
type refreshEvent struct {
	cycle int64
	due   int64 // originally scheduled cycle (for elastic postponement)
	seq   int64 // push order: breaks ties between refreshes due together
	row   int
	bank  int
}

// refreshQueue is a binary min-heap of refresh commands ordered by
// (cycle, seq). Requests never enter it: they are read in arrival order.
type refreshQueue []refreshEvent

func (q refreshQueue) less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}

func (q refreshQueue) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(q) {
			return
		}
		m := l
		if r := l + 1; r < len(q) && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			return
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

func (q refreshQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// popTop removes the earliest command.
func (q *refreshQueue) popTop() {
	n := len(*q) - 1
	(*q)[0] = (*q)[n]
	*q = (*q)[:n]
	q.down(0)
}

// unit is one independent row buffer: a bank, or one of its subarrays.
type unit struct {
	free           int64 // cycle the unit can accept the next command
	openRow        int   // -1 when precharged
	rowOpenedAt    int64
	lastRefreshEnd int64 // cycle the most recent refresh released the unit
	pending        []int // indices of queued requests
}

// controller is one run's state: the refresh timeline, the arrival-ordered
// request stream with its cursor, and the per-unit row buffers.
type controller struct {
	t       Timing
	tck     float64
	slack   float64
	horizon int64

	banks  []*dram.Bank
	scheds []core.Scheduler

	reqs []Request
	next int // first request not yet arrived

	units      []unit // bank-major: bank*nSub + subarray
	nSub       int
	rowsPerSub int

	refs refreshQueue
	seq  int64
	st   Stats
}

// Run services the request stream against the banks, each under its own
// refresh scheduler. Requests must be in arrival order; those arriving at or
// after the horizon are dropped. The returned per-request slice carries the
// individual latencies for distribution analysis.
func Run(banks []*dram.Bank, scheds []core.Scheduler, reqs []Request, opts Options) (Stats, []Request, error) {
	if err := opts.validate(banks, scheds); err != nil {
		return Stats{}, nil, err
	}
	rows := banks[0].Geom.Rows
	c := &controller{
		t:       opts.Timing,
		tck:     opts.TCK,
		slack:   opts.ElasticSlack,
		horizon: int64(opts.Duration / opts.TCK),
		banks:   banks,
		scheds:  scheds,
		nSub:    max(opts.Subarrays, 1),
		st:      Stats{Scheduler: scheds[0].Name()},
	}
	c.rowsPerSub = (rows + c.nSub - 1) / c.nSub
	c.units = make([]unit, len(banks)*c.nSub)
	for i := range c.units {
		c.units[i].openRow = -1
	}
	if err := c.seedRefreshes(opts.Granularity, rows); err != nil {
		return Stats{}, nil, err
	}
	if err := c.admit(reqs, rows); err != nil {
		return Stats{}, nil, err
	}

	// One timeline: a refresh wins a tie with a request, so the controller
	// cannot starve refreshes.
	for {
		if len(c.refs) > 0 && (c.next == len(c.reqs) || c.refs[0].cycle <= c.reqs[c.next].Arrival) {
			if err := c.refresh(); err != nil {
				return Stats{}, nil, err
			}
			continue
		}
		if c.next == len(c.reqs) {
			break
		}
		c.next++
		if err := c.arrive(c.next - 1); err != nil {
			return Stats{}, nil, err
		}
	}
	// Drain the queues after the last event.
	for i := range c.units {
		if err := c.drain(&c.units[i], 1<<62); err != nil {
			return Stats{}, nil, err
		}
	}
	return c.stats(), c.reqs, nil
}

// seedRefreshes queues every row's first refresh at its golden-ratio
// stagger (the same spread as internal/sim).
func (c *controller) seedRefreshes(g RefreshGranularity, rows int) error {
	n := len(c.banks)
	c.refs = make(refreshQueue, 0, rows*n)
	if g == AllBankRefresh {
		for r := 0; r < rows; r++ {
			p := c.allBankPeriod(r)
			if p <= 0 {
				return fmt.Errorf("memctrl: row %d period %g", r, p)
			}
			c.queue(refreshEvent{cycle: int64(core.StaggerFrac(r) * p / c.tck), row: r, bank: -1})
		}
	} else {
		for b := 0; b < n; b++ {
			for r := 0; r < rows; r++ {
				p := c.scheds[b].Period(r)
				if p <= 0 {
					return fmt.Errorf("memctrl: bank %d row %d period %g", b, r, p)
				}
				c.queue(refreshEvent{cycle: int64(core.StaggerFrac(r*n+b) * p / c.tck), row: r, bank: b})
			}
		}
	}
	c.refs.init()
	return nil
}

// queue appends a first refresh that falls inside the horizon.
func (c *controller) queue(ev refreshEvent) {
	if ev.cycle >= c.horizon {
		return
	}
	c.seq++
	ev.due, ev.seq = ev.cycle, c.seq
	c.refs = append(c.refs, ev)
}

// admit copies and checks the request stream, cutting it at the horizon.
func (c *controller) admit(reqs []Request, rows int) error {
	c.reqs = slices.Clone(reqs)
	var last int64
	for i, r := range c.reqs {
		if r.Arrival < last {
			return fmt.Errorf("memctrl: request %d arrives at cycle %d, before cycle 0 or its predecessor", i, r.Arrival)
		}
		last = r.Arrival
		if r.Bank < 0 || r.Bank >= len(c.banks) || r.Row < 0 || r.Row >= rows {
			return fmt.Errorf("memctrl: request %d addresses bank %d row %d", i, r.Bank, r.Row)
		}
		if r.Arrival >= c.horizon {
			c.reqs = c.reqs[:i]
			break
		}
	}
	return nil
}

func (c *controller) unitOf(bank, row int) *unit {
	return &c.units[bank*c.nSub+row/c.rowsPerSub]
}

func (c *controller) allBankPeriod(row int) float64 {
	p := c.scheds[0].Period(row)
	for _, s := range c.scheds[1:] {
		p = min(p, s.Period(row))
	}
	return p
}

// refresh executes the earliest refresh command and re-queues the row.
func (c *controller) refresh() error {
	ev := c.refs[0]
	var period float64
	if ev.bank >= 0 {
		u := c.unitOf(ev.bank, ev.row)
		// Elastic refresh: while requests are pending and slack remains,
		// serve the queued work and step the refresh back behind it.
		if c.slack > 0 && len(u.pending) > 0 {
			deadline := ev.due + int64(c.slack*c.scheds[ev.bank].Period(ev.row)/c.tck)
			if ev.cycle < deadline {
				for len(u.pending) > 0 && u.free < deadline {
					if err := c.serveOne(u, max(u.free, ev.cycle)); err != nil {
						return err
					}
				}
				c.st.RefreshesPostponed++
				ev.cycle = min(max(u.free, ev.cycle+1), deadline)
				c.requeue(ev)
				return nil
			}
		}
		if err := c.drain(u, ev.cycle); err != nil {
			return err
		}
		if err := c.refreshUnit(u, ev.bank, ev.row, max(ev.cycle, u.free)); err != nil {
			return err
		}
		c.st.StalledByRefresh += int64(len(u.pending))
		period = c.scheds[ev.bank].Period(ev.row)
	} else {
		// All-bank command: synchronize, refresh everywhere, block every
		// bank until the slowest finishes.
		start := ev.cycle
		for b := range c.banks {
			u := c.unitOf(b, ev.row)
			if err := c.drain(u, ev.cycle); err != nil {
				return err
			}
			start = max(start, u.free)
		}
		end := start
		for b := range c.banks {
			u := c.unitOf(b, ev.row)
			if err := c.refreshUnit(u, b, ev.row, start); err != nil {
				return err
			}
			end = max(end, u.free)
		}
		for b := range c.banks {
			u := c.unitOf(b, ev.row)
			u.free, u.lastRefreshEnd = end, end
			c.st.StalledByRefresh += int64(len(u.pending))
		}
		period = c.allBankPeriod(ev.row)
	}
	c.st.RefreshCommands++
	// Schedule from the ORIGINAL due time so postponement debt does not
	// accumulate across periods.
	next := ev.due + int64(period/c.tck)
	if next >= c.horizon {
		c.refs.popTop()
		return nil
	}
	ev.cycle, ev.due = next, next
	c.requeue(ev)
	return nil
}

// requeue replaces the command at the top of the queue with ev.
func (c *controller) requeue(ev refreshEvent) {
	c.seq++
	ev.seq = c.seq
	c.refs[0] = ev
	c.refs.down(0)
}

// refreshUnit closes the unit's open row and refreshes the bank's row at the
// cycle the close allows; scheduler and bank model see the same instant.
func (c *controller) refreshUnit(u *unit, bank, row int, start int64) error {
	c.idleClose(u, start)
	start = c.precharge(u, start)
	when := float64(start) * c.tck
	op := c.scheds[bank].RefreshOp(row, when)
	if _, err := c.banks[bank].Refresh(row, when, op.Alpha); err != nil {
		return err
	}
	u.free = start + int64(op.Cycles)
	u.lastRefreshEnd = u.free
	c.st.RefreshBusyCycles += int64(op.Cycles)
	return nil
}

// arrive queues request i at its unit and serves as much as possible while
// the unit is idle.
func (c *controller) arrive(i int) error {
	r := &c.reqs[i]
	u := c.unitOf(r.Bank, r.Row)
	if r.Arrival < u.lastRefreshEnd {
		c.st.StalledByRefresh++ // arrived while a refresh held the unit
	}
	u.pending = append(u.pending, i)
	for len(u.pending) > 0 {
		now := max(u.free, r.Arrival)
		if c.refreshFirst(now, r.Bank, r.Row) {
			break
		}
		if err := c.serveOne(u, now); err != nil {
			return err
		}
	}
	return nil
}

// refreshFirst reports whether the earliest pending event overall is a
// refresh, due by cycle now, that touches the unit holding (bank, row): its
// own per-bank command or an all-bank command, in the same subarray.
func (c *controller) refreshFirst(now int64, bank, row int) bool {
	if len(c.refs) == 0 {
		return false
	}
	top := c.refs[0]
	if top.cycle > now || (c.next < len(c.reqs) && c.reqs[c.next].Arrival < top.cycle) {
		return false
	}
	return (top.bank == bank || top.bank < 0) && top.row/c.rowsPerSub == row/c.rowsPerSub
}

// drain serves pending work until the unit would pass `limit` or the queue
// empties.
func (c *controller) drain(u *unit, limit int64) error {
	for len(u.pending) > 0 && u.free < limit {
		if err := c.serveOne(u, u.free); err != nil {
			return err
		}
	}
	return nil
}

// idleClose applies the adaptive page policy: a row idle past the timeout
// has been precharged in the background by cycle `at`. The earliest a
// background PRE could issue is after both the last burst and the tRAS
// window; TCloseIdle (>= tRP) of further idleness hides the precharge.
func (c *controller) idleClose(u *unit, at int64) {
	if u.openRow < 0 || c.t.TCloseIdle == 0 {
		return
	}
	if at-max(u.free, u.rowOpenedAt+int64(c.t.TRAS)) >= int64(c.t.TCloseIdle) {
		u.openRow = -1
	}
}

// precharge closes the unit's open row no earlier than `at` (respecting
// tRAS) and returns the cycle the unit is precharged.
func (c *controller) precharge(u *unit, at int64) int64 {
	if u.openRow < 0 {
		return at
	}
	u.openRow = -1
	return max(at, u.rowOpenedAt+int64(c.t.TRAS)) + int64(c.t.TRP)
}

// serveOne issues the unit's best pending request at or after cycle `now`,
// preferring row hits (FR-FCFS).
func (c *controller) serveOne(u *unit, now int64) error {
	pick := 0
	if u.openRow >= 0 {
		for k, idx := range u.pending {
			if c.reqs[idx].Row == u.openRow {
				pick = k
				break
			}
		}
	}
	req := &c.reqs[u.pending[pick]]
	u.pending = slices.Delete(u.pending, pick, pick+1)

	start := max(now, req.Arrival)
	c.idleClose(u, start)
	var done int64
	if u.openRow == req.Row {
		req.RowHit = true
		c.st.RowHits++
		done = start + int64(c.t.TCL+c.t.TBL)
	} else {
		start = c.precharge(u, start)
		done = start + int64(c.t.TRCD+c.t.TCL+c.t.TBL)
		u.openRow = req.Row
		u.rowOpenedAt = start
	}
	if req.Write {
		done += int64(c.t.TWR)
	}
	req.Start = start
	req.Finish = done
	u.free = done
	if req.RowHit {
		return nil
	}
	// The activation restored the row: tell the charge model and the
	// scheduler (VRL-Access exploits this).
	when := float64(start) * c.tck
	if _, err := c.banks[req.Bank].Access(req.Row, when); err != nil {
		return err
	}
	c.scheds[req.Bank].OnAccess(req.Row, when)
	return nil
}

// stats aggregates the served requests and the banks' violations.
func (c *controller) stats() Stats {
	st := c.st
	var sum, sumRead int64
	lats := make([]int64, len(c.reqs))
	for i, r := range c.reqs {
		if r.Write {
			st.Writes++
		} else {
			st.Reads++
			sumRead += r.Latency()
		}
		sum += r.Latency()
		lats[i] = r.Latency()
	}
	st.Requests = int64(len(c.reqs))
	if st.Requests > 0 {
		st.AvgLatency = float64(sum) / float64(st.Requests)
		st.RowHitRate = float64(st.RowHits) / float64(st.Requests)
		slices.Sort(lats)
		st.P95Latency = lats[int(float64(len(lats)-1)*0.95)]
		st.MaxLatency = lats[len(lats)-1]
	}
	if st.Reads > 0 {
		st.AvgReadLatency = float64(sumRead) / float64(st.Reads)
	}
	for _, b := range c.banks {
		st.Violations += len(b.Violations())
	}
	return st
}

// RequestsFromTrace converts a row-granular trace into controller requests,
// interleaving its rows across the banks: global row g maps to bank
// g%banks, row g/banks.
func RequestsFromTrace(recs []trace.Record, tck float64, banks int) []Request {
	out := make([]Request, 0, len(recs))
	for _, r := range recs {
		out = append(out, Request{
			Arrival: int64(r.Time/tck + 0.5),
			Bank:    r.Row % banks,
			Row:     r.Row / banks,
			Write:   r.Op == trace.Write,
		})
	}
	return out
}
