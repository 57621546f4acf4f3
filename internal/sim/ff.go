package sim

import "math"

// Fast-forward planning: the pure arithmetic the BackendFastForward runner
// uses to decide how far a quiescent window may extend. Kept free of
// simulator state so the fuzz target (FuzzFastForwardPlan) can hammer it
// with arbitrary triples.

// ffHorizon returns the earliest of the candidate fast-forward caps: the run
// duration, the next checkpoint boundary, the next scrub sweep, and the next
// trace record. Callers pass +Inf for sources that do not apply; the result
// is the largest time the kernel may process events strictly below without
// any non-refresh machinery being able to intervene (the runner lowers it
// further to a scenario's nominal-until time).
func ffHorizon(duration, nextCP, scrubDue, traceNext float64) float64 {
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
// fast-forward kernel, which cannot merge the mixed lane. The seeds a run
// starts or resumes with sit in the mixed intake while every lane is empty,
// and ffMinLap keeps the kernel off until the batch path has re-pushed them
// into their lanes.
func (bq *batchQueue) mixedQuietBelow(h float64) bool {
	if bq.mixedHead >= len(bq.mixed) {
		return true
	}
	bq.ensureMixedSorted()
	return !(bq.mixed[bq.mixedHead].T < h)
}

// ffInf is the "source does not apply" horizon.
func ffInf() float64 { return math.Inf(1) }
