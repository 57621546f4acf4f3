package sim

import (
	"math"
	"slices"

	"vrldram/internal/dram"
)

// Batched event queue. A general priority queue (the scalar runner's binary
// heap) pays O(log rows) comparisons per push and pop. The batch queue
// exploits the structure of the refresh stream instead: almost every
// event is a re-push at "now + period" for a period drawn from a handful of
// distinct values (the retention bins), and the runner processes events in
// ascending time order - so the re-pushes of one period value arrive already
// sorted. Keeping one FIFO lane per distinct period makes push an append and
// drain a k-way merge of sorted lanes, with no hashing and no sorting on the
// hot path. Events that do not come with a period (initial seeds, resume
// snapshots) or that would break a lane's ordering go to a "mixed" intake
// lane that is sorted lazily, once per disturbance.
//
// Ordering invariant: identical to the other queues - events leave in
// strictly increasing (time, row) order, so the batched runner observes
// exactly the sequence the reference heap would emit.
const (
	// batchWindow is the batch granularity: the batched runner drains
	// [tFirst, tFirst+batchWindow) as one batch (further cut by
	// checkpoint/scrub/trace boundaries, so a wider window never delays an
	// interleaving interaction - the window only sets how much per-batch
	// overhead each kernel call amortizes). Eight milliseconds holds on the
	// order of a thousand refresh events of an 8K-row bank while keeping
	// the gather columns comfortably cache-resident.
	batchWindow = 8e-3
	// batchMaxLanes caps the per-period lanes. Schedulers with more
	// distinct periods than this (none of the shipped ones; the bins are
	// 3-4 values) spill the excess into the mixed lane, which stays
	// correct - just sorted instead of merged.
	batchMaxLanes = 12
	// laneCompactMin bounds how much consumed prefix a lane may carry
	// before its tail is copied down. Amortized O(1) per event.
	laneCompactMin = 4096
)

// eventLess is the queue's total order: (time, row) ascending.
func eventLess(a, b event) bool {
	return a.T < b.T || (a.T == b.T && a.Row < b.Row)
}

// sortEvents orders s by (time, row) with a natural merge sort, reusing the
// caller's scratch buffers across calls. Hand-rolled rather than
// slices.SortFunc (the generic comparator indirection was the single largest
// line in a refresh-only profile) and run-aware because the mixed lane's
// contents are typically a few concatenated sorted runs, which merge in ~2
// comparisons per event where a general sort pays the full n log n.
func sortEvents(s []event, scratch *[]event, bounds *[]int, keys *[]uint64) {
	n := len(s)
	if n < 2 {
		return
	}
	// Split into maximal ascending runs; runs[i] is the start of run i.
	runs := append((*bounds)[:0], 0)
	for i := 1; i < n; i++ {
		if eventLess(s[i], s[i-1]) {
			runs = append(runs, i)
		}
	}
	*bounds = runs
	if len(runs) == 1 {
		return // already sorted
	}
	if len(runs) > 8 && len(runs) > n/8 {
		// Run structure too fragmented for merging to pay (e.g. the initial
		// seed phase, which arrives in row order with effectively random
		// stagger times): sort comparison-free instead - byte radix when
		// large enough to amortize the histograms, else quicksort.
		if n >= 256 {
			radixSortEvents(s, scratch, keys)
		} else {
			quickSortEvents(s)
		}
		return
	}
	if cap(*scratch) < n {
		*scratch = make([]event, n)
	}
	tmp := (*scratch)[:n]
	// Bottom-up passes merging adjacent runs in place (left half staged
	// through tmp) until one run remains.
	for len(runs) > 1 {
		out := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			out = append(out, runs[i])
			if i+1 >= len(runs) {
				break
			}
			a, b := runs[i], runs[i+1]
			c := n
			if i+2 < len(runs) {
				c = runs[i+2]
			}
			// Merge s[a:b] and s[b:c]: stage the left run in tmp, then
			// merge back into s[a:c].
			left := tmp[:copy(tmp, s[a:b])]
			li, ri, w := 0, b, a
			for li < len(left) && ri < c {
				if eventLess(s[ri], left[li]) {
					s[w] = s[ri]
					ri++
				} else {
					s[w] = left[li]
					li++
				}
				w++
			}
			for li < len(left) {
				s[w] = left[li]
				li++
				w++
			}
		}
		runs = out
	}
}

// radixSortEvents orders s by (time, row) with an LSD byte radix over the
// IEEE-754 bits of the time (the standard sign fixup makes the bit pattern
// order-isomorphic to the float order), then repairs row order inside
// equal-time runs with a bounded insertion pass. Sorting 8K seed events this
// way is ~4x cheaper than quicksort: no comparisons, and passes over bytes
// the keys all share - the high exponent bytes of times inside one refresh
// window - are detected from the histogram and skipped.
func radixSortEvents(s []event, scratch *[]event, keyBuf *[]uint64) {
	n := len(s)
	if cap(*scratch) < n {
		*scratch = make([]event, n)
	}
	tmp := (*scratch)[:n]
	if cap(*keyBuf) < 2*n {
		*keyBuf = make([]uint64, 2*n)
	}
	keys := (*keyBuf)[:n]
	keysTmp := (*keyBuf)[n : 2*n]
	var hist [8][256]int
	for i := range s {
		b := math.Float64bits(s[i].T)
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
		keys[i] = b
		hist[0][b&0xff]++
		hist[1][b>>8&0xff]++
		hist[2][b>>16&0xff]++
		hist[3][b>>24&0xff]++
		hist[4][b>>32&0xff]++
		hist[5][b>>40&0xff]++
		hist[6][b>>48&0xff]++
		hist[7][b>>56&0xff]++
	}
	src, dst := s, tmp
	ksrc, kdst := keys, keysTmp
	for pass := range hist {
		h := &hist[pass]
		shift := uint(pass * 8)
		if h[ksrc[0]>>shift&0xff] == n {
			continue // every key shares this byte
		}
		sum := 0
		for i := range h {
			c := h[i]
			h[i] = sum
			sum += c
		}
		for i := 0; i < n; i++ {
			k := ksrc[i]
			d := k >> shift & 0xff
			j := h[d]
			h[d] = j + 1
			dst[j] = src[i]
			kdst[j] = k
		}
		src, dst = dst, src
		ksrc, kdst = kdst, ksrc
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	// The radix ordered by time alone; restore (time, row) order inside any
	// equal-time run (rare: distinct rows almost always have distinct
	// phases, so runs are short when they exist at all).
	for i := 1; i < n; i++ {
		if s[i].T == s[i-1].T && s[i].Row < s[i-1].Row {
			e := s[i]
			j := i
			for j > 0 && s[j-1].T == e.T && s[j-1].Row > e.Row {
				s[j] = s[j-1]
				j--
			}
			s[j] = e
		}
	}
}

// quickSortEvents orders s by (time, row): median-of-three quicksort with
// insertion sort below 24 elements, all with concrete inlined comparisons.
func quickSortEvents(s []event) {
	for len(s) > 24 {
		// Median of first/middle/last as pivot, swapped to s[0].
		lo, mid := 0, len(s)/2
		if eventLess(s[mid], s[lo]) {
			lo, mid = mid, lo
		}
		if hi := len(s) - 1; eventLess(s[hi], s[mid]) {
			mid = hi
			if eventLess(s[mid], s[lo]) {
				lo, mid = mid, lo
			}
		}
		s[0], s[mid] = s[mid], s[0]
		pivot := s[0]
		i, j := 1, len(s)-1
		for {
			for i <= j && eventLess(s[i], pivot) {
				i++
			}
			for i <= j && eventLess(pivot, s[j]) {
				j--
			}
			if i > j {
				break
			}
			s[i], s[j] = s[j], s[i]
			i++
			j--
		}
		s[0], s[j] = s[j], s[0]
		// Recurse into the smaller side, loop on the larger.
		if j < len(s)-i {
			quickSortEvents(s[:j])
			s = s[i:]
		} else {
			quickSortEvents(s[i:])
			s = s[:j]
		}
	}
	for i := 1; i < len(s); i++ {
		e := s[i]
		j := i
		for j > 0 && eventLess(e, s[j-1]) {
			s[j] = s[j-1]
			j--
		}
		s[j] = e
	}
}

// batchLane is one FIFO of events sharing a re-push period. Its unconsumed
// tail Events[Head:] is sorted by (time, row) by construction: the runner
// pushes in ascending event-time order, and adding a shared constant
// preserves that order. It aliases dram.RefreshLane so the lane slice can be
// handed to the fast-forward kernel in place.
type batchLane = dram.RefreshLane

// laneTailT returns the newest queued time, or -Inf when the lane is empty.
func laneTailT(l *batchLane) float64 {
	if l.Head == len(l.Events) {
		return math.Inf(-1)
	}
	return l.Events[len(l.Events)-1].T
}

func laneCompact(l *batchLane) {
	if l.Head == len(l.Events) {
		l.Events = l.Events[:0]
		l.Head = 0
	} else if l.Head >= laneCompactMin && l.Head >= len(l.Events)/2 {
		n := copy(l.Events, l.Events[l.Head:])
		l.Events = l.Events[:n]
		l.Head = 0
	}
}

// batchQueue is the lane set plus the mixed intake.
type batchQueue struct {
	lanes       []batchLane
	mixed       []event // unsorted intake: seeds, resumes, spilled lanes
	mixedHead   int
	mixedSorted bool
	count       int

	sortTmp    []event  // merge/radix staging buffer for the mixed lane
	sortBounds []int    // run-boundary scratch for the mixed lane
	sortKeys   []uint64 // radix key scratch for the mixed lane
}

// reset empties the queue while keeping every allocation for reuse.
func (bq *batchQueue) reset() {
	for i := range bq.lanes {
		bq.lanes[i].Events = bq.lanes[i].Events[:0]
		bq.lanes[i].Head = 0
	}
	bq.lanes = bq.lanes[:0]
	bq.mixed = bq.mixed[:0]
	bq.mixedHead = 0
	bq.mixedSorted = false
	bq.count = 0
}

func (bq *batchQueue) size() int { return bq.count }

// push enqueues an event with no ordering hint: it goes to the mixed lane,
// to be sorted on the next read.
func (bq *batchQueue) push(e event) {
	bq.mixed = append(bq.mixed, e)
	bq.mixedSorted = false
	bq.count++
}

// pushNext enqueues a re-push scheduled delta after the event the runner is
// currently processing. Events sharing a delta arrive in ascending time
// order (the runner's processing order), so each lane stays sorted by
// construction; the guard below routes any violation - and any delta beyond
// the lane cap - through the mixed lane instead.
func (bq *batchQueue) pushNext(e event, delta float64) {
	for i := range bq.lanes {
		l := &bq.lanes[i]
		if l.Delta == delta {
			if t := laneTailT(l); e.T < t || (e.T == t && l.Events[len(l.Events)-1].Row >= e.Row) {
				break // would break FIFO order; spill to mixed
			}
			laneCompact(l)
			l.Events = append(l.Events, e)
			bq.count++
			return
		}
	}
	if len(bq.lanes) < batchMaxLanes && !math.IsNaN(delta) {
		if cap(bq.lanes) > len(bq.lanes) {
			// Reuse a recycled lane (and its buffer) from a prior run.
			bq.lanes = bq.lanes[:len(bq.lanes)+1]
			l := &bq.lanes[len(bq.lanes)-1]
			l.Delta = delta
			l.Events = append(l.Events[:0], e)
			l.Head = 0
		} else {
			bq.lanes = append(bq.lanes, batchLane{Delta: delta, Events: append(make([]event, 0, 64), e)})
		}
		bq.count++
		return
	}
	bq.push(e)
}

// ensureMixedSorted sorts the mixed lane's unconsumed tail if dirty.
func (bq *batchQueue) ensureMixedSorted() {
	if !bq.mixedSorted {
		if bq.mixedHead == len(bq.mixed) {
			bq.mixed = bq.mixed[:0]
			bq.mixedHead = 0
		}
		sortEvents(bq.mixed[bq.mixedHead:], &bq.sortTmp, &bq.sortBounds, &bq.sortKeys)
		bq.mixedSorted = true
	}
}

// peekTime returns the earliest outstanding event time, or +Inf when empty.
func (bq *batchQueue) peekTime() float64 {
	if bq.count == 0 {
		return math.Inf(1)
	}
	return bq.peek().T
}

// peek returns the earliest outstanding event without removing it. The
// queue must be non-empty.
func (bq *batchQueue) peek() event {
	_, e := bq.argmin()
	return e
}

// argmin locates the lane holding the earliest event: index into lanes, or
// -1 for the mixed lane. The queue must be non-empty.
func (bq *batchQueue) argmin() (int, event) {
	bq.ensureMixedSorted()
	best := -2
	var bestE event
	if bq.mixedHead < len(bq.mixed) {
		best, bestE = -1, bq.mixed[bq.mixedHead]
	}
	for i := range bq.lanes {
		l := &bq.lanes[i]
		if l.Head < len(l.Events) {
			if e := l.Events[l.Head]; best == -2 || eventLess(e, bestE) {
				best, bestE = i, e
			}
		}
	}
	return best, bestE
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (bq *batchQueue) pop() event {
	li, e := bq.argmin()
	if li == -1 {
		bq.mixedHead++
	} else {
		bq.lanes[li].Head++
	}
	bq.count--
	return e
}

// popBatch removes every outstanding event with t < h, appending them in
// (time, row) order to rows and times: a k-way merge over the lane prefixes
// below the horizon.
func (bq *batchQueue) popBatch(h float64, rows []int, times []float64) ([]int, []float64) {
	bq.ensureMixedSorted()
	for bq.count > 0 {
		best := -2
		var bestE event
		if bq.mixedHead < len(bq.mixed) {
			if e := bq.mixed[bq.mixedHead]; e.T < h {
				best, bestE = -1, e
			}
		}
		for i := range bq.lanes {
			l := &bq.lanes[i]
			if l.Head < len(l.Events) {
				if e := l.Events[l.Head]; e.T < h && (best == -2 || eventLess(e, bestE)) {
					best, bestE = i, e
				}
			}
		}
		if best == -2 {
			break
		}
		// Consume the whole run below the horizon that keeps this lane the
		// minimum: everything up to the next other-lane head (or h). This
		// turns the k-way merge into long memcpy-like stretches when one
		// retention bin dominates, which is the common shape.
		limit := h
		limRow := -1
		if bq.mixedHead < len(bq.mixed) && best != -1 {
			if e := bq.mixed[bq.mixedHead]; e.T < limit {
				limit, limRow = e.T, e.Row
			}
		}
		for i := range bq.lanes {
			if i == best {
				continue
			}
			l := &bq.lanes[i]
			if l.Head < len(l.Events) {
				if e := l.Events[l.Head]; e.T < limit || (e.T == limit && limRow >= 0 && e.Row < limRow) {
					limit, limRow = e.T, e.Row
				}
			}
		}
		if best == -1 {
			for bq.mixedHead < len(bq.mixed) {
				e := bq.mixed[bq.mixedHead]
				if e.T > limit || (e.T == limit && limRow >= 0 && e.Row > limRow) || e.T >= h {
					break
				}
				rows = append(rows, e.Row)
				times = append(times, e.T)
				bq.mixedHead++
				bq.count--
			}
		} else {
			l := &bq.lanes[best]
			for l.Head < len(l.Events) {
				e := l.Events[l.Head]
				if e.T > limit || (e.T == limit && limRow >= 0 && e.Row > limRow) || e.T >= h {
					break
				}
				rows = append(rows, e.Row)
				times = append(times, e.T)
				l.Head++
				bq.count--
			}
		}
	}
	return rows, times
}

// pendingSorted returns the outstanding events in canonical (time, row)
// order - the checkpoint form, identical across queue implementations.
func (bq *batchQueue) pendingSorted() []PendingEvent {
	out := make([]PendingEvent, 0, bq.size())
	for i := range bq.lanes {
		l := &bq.lanes[i]
		for _, e := range l.Events[l.Head:] {
			out = append(out, PendingEvent{Time: e.T, Row: e.Row})
		}
	}
	for _, e := range bq.mixed[bq.mixedHead:] {
		out = append(out, PendingEvent{Time: e.T, Row: e.Row})
	}
	slices.SortFunc(out, func(a, b PendingEvent) int {
		switch {
		case a.Time < b.Time:
			return -1
		case a.Time > b.Time:
			return 1
		case a.Row < b.Row:
			return -1
		case a.Row > b.Row:
			return 1
		}
		return 0
	})
	return out
}
