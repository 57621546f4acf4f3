package sim

import "math"

// Fast-forward planning: the pure arithmetic the BackendFastForward runner
// uses to decide how far a quiescent window may extend. Kept free of
// simulator state so the fuzz target (FuzzFastForwardPlan) can hammer it
// with arbitrary triples.

// ffHorizon returns the earliest of the candidate fast-forward caps: the run
// duration, the next checkpoint boundary, the next scrub sweep, the next
// trace record, and the scheduler/scenario stability horizon. Callers pass
// +Inf for sources that do not apply; the result is the largest time the
// kernel may process events strictly below without any non-refresh
// machinery being able to intervene.
func ffHorizon(duration, nextCP, scrubDue, traceNext, stableUntil float64) float64 {
	h := duration
	if nextCP < h {
		h = nextCP
	}
	if scrubDue < h {
		h = scrubDue
	}
	if traceNext < h {
		h = traceNext
	}
	if stableUntil < h {
		h = stableUntil
	}
	return h
}

// ffMinLap returns the smallest refresh period among lanes holding
// unconsumed events - the shortest window span in which a fast-forward
// kernel can replay at least one full lap of some lane. Windows narrower
// than this cannot amortize the kernel's per-window full-lane scans, so the
// runner skips the attempt (+Inf when no lane holds events, or a lane's
// period is degenerate, which sends the window to the batch path).
func ffMinLap(lanes []batchLane) float64 {
	min := math.Inf(1)
	for i := range lanes {
		l := &lanes[i]
		if l.Head >= len(l.Events) {
			continue
		}
		if !(l.Delta > 0) {
			return math.Inf(1)
		}
		if l.Delta < min {
			min = l.Delta
		}
	}
	return min
}

// mixedQuietBelow reports whether the mixed intake holds no event strictly
// below h - the precondition for handing the period lanes alone to the
// fast-forward kernel, which cannot merge the mixed lane.
func (bq *batchQueue) mixedQuietBelow(h float64) bool {
	if bq.mixedHead >= len(bq.mixed) {
		return true
	}
	bq.ensureMixedSorted()
	return !(bq.mixed[bq.mixedHead].T < h)
}

// ffInf is the "source does not apply" horizon.
func ffInf() float64 { return math.Inf(1) }

// adoptMixed moves every unconsumed mixed-intake event into the period lane
// its row's current refresh period keys, so a run whose queue was seeded
// through the mixed intake (initial stagger, resume) can fast-forward from
// its very first window instead of waiting for the batch path to drain the
// seeds. It reports whether the mixed intake is now empty.
//
// Safe only when every lane is empty: the mixed intake is globally sorted,
// so each period's subsequence is itself sorted and every lane it builds is
// ordered by construction; with a non-empty lane an early mixed event could
// land behind the lane's tail. The move preserves the queue's event
// multiset and count, so pendingSorted (and with it every checkpoint) is
// unchanged.
func (bq *batchQueue) adoptMixed(period float64, periods []float64) bool {
	if bq.mixedHead >= len(bq.mixed) {
		return true
	}
	for i := range bq.lanes {
		if bq.lanes[i].Head < len(bq.lanes[i].Events) {
			return false
		}
	}
	bq.ensureMixedSorted()
	// Precheck the whole move before mutating anything: every event's period
	// must be a usable lane key, and the distinct periods (plus recyclable
	// empty lanes) must fit the lane cap.
	var deltas [batchMaxLanes]float64
	nd := 0
	for i := range bq.lanes {
		deltas[nd] = bq.lanes[i].Delta
		nd++
	}
precheck:
	for _, e := range bq.mixed[bq.mixedHead:] {
		p := period
		if periods != nil {
			if uint(e.Row) >= uint(len(periods)) {
				return false
			}
			p = periods[e.Row]
		}
		if math.IsNaN(p) {
			return false
		}
		for i := 0; i < nd; i++ {
			if deltas[i] == p {
				continue precheck
			}
		}
		if nd == batchMaxLanes {
			return false
		}
		deltas[nd] = p
		nd++
	}
	for _, e := range bq.mixed[bq.mixedHead:] {
		p := period
		if periods != nil {
			p = periods[e.Row]
		}
		li := -1
		for i := range bq.lanes {
			if bq.lanes[i].Delta == p {
				li = i
				break
			}
		}
		if li < 0 {
			if cap(bq.lanes) > len(bq.lanes) {
				bq.lanes = bq.lanes[:len(bq.lanes)+1]
			} else {
				bq.lanes = append(bq.lanes, batchLane{})
			}
			li = len(bq.lanes) - 1
			bq.lanes[li] = batchLane{Delta: p, Events: bq.lanes[li].Events[:0]}
		}
		l := &bq.lanes[li]
		if l.Events == nil {
			l.Events = make([]event, 0, 64)
		}
		l.Events = append(l.Events, e)
	}
	bq.mixed = bq.mixed[:0]
	bq.mixedHead = 0
	bq.mixedSorted = false
	return true
}
