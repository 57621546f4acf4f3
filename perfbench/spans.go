package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Times are host
// nanoseconds since the tracer's base instant.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`     // see setupOp and oracleOp
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out once the run ends.
// A nil *tracer is the untraced mode: begin returns 0 and end does nothing,
// so the timed code is identical apart from the two calls.
type tracer struct {
	base time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// adopt grafts spans recorded by another process under parent. childBase is
// that process's base instant as wall-clock Unix nanoseconds, which lines
// its offsets up with this tracer's.
func (t *tracer) adopt(spans []span, childBase int64, parent, op int) {
	if t == nil {
		return
	}
	shift := childBase - t.base.UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	idMap := make(map[int]int, len(spans))
	for _, s := range spans {
		id := len(t.spans) + 1
		idMap[s.ID] = id
		p, ok := idMap[s.Parent]
		if !ok {
			p = parent
		}
		t.spans = append(t.spans, span{ID: id, Parent: p, Op: op, Name: s.Name, Start: s.Start + shift, End: s.End + shift})
	}
}

// snapshot returns a copy of every closed span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfByOp returns, per span name and op id, the summed self time in ms of
// the spans with that name in that op. A span's self time is its duration
// minus the part of its interval its children cover; children are merged
// as intervals first, so children running concurrently (fleet shards in
// flight together) are not subtracted twice.
func selfByOp(spans []span) map[string]map[int]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]map[int]float64)
	for _, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = make(map[int]float64)
		}
		covered := coveredNanos(s.Start, s.End, children[s.ID])
		out[s.Name][s.Op] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// values returns the entries of byOp whose op id satisfies keep.
func values(byOp map[int]float64, keep func(op int) bool) []float64 {
	var out []float64
	for op, v := range byOp {
		if keep(op) {
			out = append(out, v)
		}
	}
	return out
}

// spanDurations returns the duration in ms of every span with the name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// coveredNanos measures the union of the kids' intervals clipped to
// [lo, hi].
func coveredNanos(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// spanFile names the file a traced run writes its spans to.
func spanFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

// Op ids: timed ops are 0, 1, ...; set-up repetition r is setupOp(r); the
// reference run of distinct input k is oracleOp(k).
func setupOp(rep int) int    { return -1 - rep }
func oracleOp(k int) int     { return -1000 - k }
func isSetupOp(op int) bool  { return op < 0 && op > -1000 }
func isOracleOp(op int) bool { return op <= -1000 }
