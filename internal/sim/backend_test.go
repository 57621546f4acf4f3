package sim

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/ecc"
	"vrldram/internal/fault"
	"vrldram/internal/profiler"
	"vrldram/internal/retention"
	"vrldram/internal/scenario"
	"vrldram/internal/scrub"
	"vrldram/internal/trace"
)

// TestBatchQueueMatchesHeapPopOrder is the queue-level property for the
// lane-based batch queue: against random periodic workloads drained through
// popBatch at random horizons - exercising the per-period FIFO lanes, the
// mixed-lane sort, and FIFO-violation spills - the batch queue must emit
// exactly the (time, row) sequence the reference binary heap does, one
// event at a time. Horizons stay below the earliest possible re-push
// (tFirst + the minimum period): a re-push landing inside an already
// extracted batch is legal for the queue but handled by the runner's
// in-window merge, which FuzzSimEquivalence's short-bin seeds cover.
func TestBatchQueueMatchesHeapPopOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(200)
		var bq batchQueue
		bq.reset()
		var heap eventHeap
		periods := make([]float64, rows)
		minPeriod := math.Inf(1)
		for r := 0; r < rows; r++ {
			// A handful of shared periods (lane-friendly) plus a random tail
			// that overflows batchMaxLanes and spills to the mixed lane.
			if rng.Intn(2) == 0 {
				periods[r] = 64e-3 * float64(1+rng.Intn(4))
			} else {
				periods[r] = 32e-3 * math.Pow(2, 5*rng.Float64())
			}
			minPeriod = math.Min(minPeriod, periods[r])
			e := event{T: core.StaggerFrac(r) * periods[r], Row: r}
			bq.push(e)
			heap.push(e)
		}
		var rowsBuf []int
		var timesBuf []float64
		horizon := 0.7
		for heap.size() > 0 {
			if bq.size() != heap.size() || bq.peekTime() != heap.peekTime() {
				return false
			}
			h := heap.peekTime() + (0.05+0.95*rng.Float64())*minPeriod
			rowsBuf, timesBuf = bq.popBatch(h, rowsBuf[:0], timesBuf[:0])
			if len(rowsBuf) == 0 {
				return false
			}
			for i := range rowsBuf {
				he := heap.pop()
				if he.Row != rowsBuf[i] || he.T != timesBuf[i] {
					return false
				}
				if next := he.T + periods[he.Row]; next < horizon {
					ne := event{T: next, Row: he.Row}
					bq.pushNext(ne, periods[he.Row])
					heap.push(ne)
				}
			}
		}
		return bq.size() == 0 && math.IsInf(bq.peekTime(), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchQueuePendingSortedMatchesHeap pins the checkpoint form: however
// the outstanding events are distributed across lanes, pendingSorted must
// equal the heap queue's canonical listing.
func TestBatchQueuePendingSortedMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bq batchQueue
	bq.reset()
	var heap eventHeap
	for r := 0; r < 300; r++ {
		e := event{T: rng.Float64(), Row: r}
		if r%2 == 0 {
			d := 64e-3 * float64(1+r%20) // > batchMaxLanes distinct deltas
			bq.pushNext(e, d)
		} else {
			bq.push(e)
		}
		heap.push(e)
	}
	// Consume a prefix so head offsets are non-trivial in both.
	var rowsBuf []int
	var timesBuf []float64
	rowsBuf, _ = bq.popBatch(0.25, rowsBuf, timesBuf)
	for range rowsBuf {
		heap.pop()
	}
	if got, want := bq.pendingSorted(), heap.pendingSorted(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pendingSorted diverged:\nbatch: %v\nheap:  %v", got, want)
	}
}

// backendHarness builds one fully-featured run configuration for the
// backend equivalence matrix: a mis-binned retention profile (so ECC
// classification fires), an access trace, checkpointing, and optional
// scenario and scrub layers.
type backendHarness struct {
	geom    device.BankGeometry
	profile *retention.BankProfile
	rm      core.RestoreModel
	recs    []trace.Record
	seed    int64
	opts    Options
	bins    []float64 // refresh-period bins; nil means the RAIDR default
}

func newBackendHarness(t *testing.T, seed int64) *backendHarness {
	t.Helper()
	p := device.Default90nm()
	geom := device.BankGeometry{Rows: 256, Cols: 32}
	prof, err := retention.NewSampledProfile(geom, retention.DefaultCellDistribution(), seed)
	if err != nil {
		t.Fatal(err)
	}
	bad, _, err := fault.MisBinProfile(prof, 0.05, retention.RAIDRBins, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.PaperRestoreModel(p, geom)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, 1200)
	for i := range recs {
		op := trace.Read
		if i%3 == 0 {
			op = trace.Write
		}
		recs[i] = trace.Record{Time: float64(i) * 0.768 / float64(len(recs)), Op: op, Row: (i * 37) % geom.Rows}
	}
	cls := ecc.DefaultClassifier()
	return &backendHarness{
		geom:    geom,
		profile: bad,
		rm:      rm,
		recs:    recs,
		seed:    seed,
		opts:    Options{Duration: 0.768, TCK: p.TCK, ECC: &cls},
	}
}

func (h *backendHarness) sched(t *testing.T, name string) core.Scheduler {
	t.Helper()
	cfg := core.Config{Restore: h.rm, Bins: h.bins}
	var (
		s   core.Scheduler
		err error
	)
	switch name {
	case "jedec":
		s, err = core.NewJEDEC(device.Default90nm().TRetNom, h.rm)
	case "raidr":
		s, err = core.NewRAIDR(h.profile, cfg)
	case "vrl":
		s, err = core.NewVRL(h.profile, cfg)
	case "vrl-access":
		s, err = core.NewVRLAccess(h.profile, cfg)
	default:
		t.Fatalf("unknown scheduler %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runOnce executes one full checkpointed run on the requested backend and
// returns the stats plus the gob-encoded checkpoint stream. scenName names
// a catalog scenario to decay under ("" = bare bank).
func (h *backendHarness) runOnce(t *testing.T, schedName, scenName string, withScrub bool, backend Backend) (Stats, [][]byte) {
	t.Helper()
	bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	sched := h.sched(t, schedName)
	opts := h.opts
	opts.Backend = backend
	if scenName != "" {
		env, err := scenario.BuildEnv(scenario.Ref{Name: scenName}, opts.Duration, h.seed+3)
		if err != nil {
			t.Fatal(err)
		}
		if err := bank.SetModulator(env); err != nil {
			t.Fatal(err)
		}
		opts.Scenario = env
	}
	if withScrub {
		// The scrub store needs a classifier even when the run itself skips
		// ECC classification (the fast-forward harness clears opts.ECC to
		// stay eligible).
		cls := opts.ECC
		if cls == nil {
			d := ecc.DefaultClassifier()
			cls = &d
		}
		store, err := scrub.NewBankStore(bank, *cls)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := scrub.New(store, scrub.Config{
			Sched:  sched,
			Spares: 64,
			Reprofile: func(row int) (float64, error) {
				return profiler.ProfileRow(h.profile, retention.ExpDecay{}, row, profiler.Options{})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		opts.Scrub = scr
	}
	var blobs [][]byte
	opts.CheckpointEvery = opts.Duration / 4
	opts.CheckpointSink = func(cp *Checkpoint) error {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			return err
		}
		blobs = append(blobs, buf.Bytes())
		return nil
	}
	r := NewReusable(h.geom.Rows)
	st, err := r.Run(bank, sched, trace.NewSliceSource(h.recs), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st, blobs
}

// comparePair runs the same configuration on the scalar reference and the
// batched runner and demands bit-identical Stats and bit-identical
// serialized checkpoints.
func (h *backendHarness) comparePair(t *testing.T, schedName, scenName string, withScrub bool) {
	t.Helper()
	scalarStats, scalarBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendScalar)
	batchStats, batchBlobs := h.runOnce(t, schedName, scenName, withScrub, BackendBatch)
	if !reflect.DeepEqual(scalarStats, batchStats) {
		t.Fatalf("stats diverged:\nscalar: %+v\nbatch:  %+v", scalarStats, batchStats)
	}
	if len(scalarBlobs) != len(batchBlobs) {
		t.Fatalf("checkpoint counts diverged: %d vs %d", len(scalarBlobs), len(batchBlobs))
	}
	if len(scalarBlobs) == 0 {
		t.Fatal("run produced no checkpoints; the blob comparison is vacuous")
	}
	for i := range scalarBlobs {
		if !bytes.Equal(scalarBlobs[i], batchBlobs[i]) {
			t.Fatalf("checkpoint %d blob diverged between backends", i)
		}
	}
}

// TestBatchMatchesScalarFullRuns is the keystone equivalence property of
// the columnar kernels: across all four schedulers, scrub on and off, and
// every catalog scenario (plus the bare bank), a run on the batched backend
// must produce bit-identical Stats and bit-identical serialized checkpoints
// to the same run on the scalar reference.
func TestBatchMatchesScalarFullRuns(t *testing.T) {
	h := newBackendHarness(t, 7)
	scens := append([]string{""}, scenario.Names()...)
	for _, schedName := range []string{"jedec", "raidr", "vrl", "vrl-access"} {
		for _, withScrub := range []bool{false, true} {
			for _, scen := range scens {
				label := scen
				if label == "" {
					label = "bare"
				}
				t.Run(fmt.Sprintf("%s/scrub=%v/%s", schedName, withScrub, label), func(t *testing.T) {
					h.comparePair(t, schedName, scen, withScrub)
				})
			}
		}
	}
}

// TestBatchMatchesScalarSecondSeed re-runs a slice of the matrix on a
// different profile seed, so the equivalence does not hinge on one
// retention draw.
func TestBatchMatchesScalarSecondSeed(t *testing.T) {
	h := newBackendHarness(t, 21)
	for _, withScrub := range []bool{false, true} {
		for _, scen := range []string{"", "kitchen-sink"} {
			label := scen
			if label == "" {
				label = "bare"
			}
			t.Run(fmt.Sprintf("vrl/scrub=%v/%s", withScrub, label), func(t *testing.T) {
				h.comparePair(t, "vrl", scen, withScrub)
			})
		}
	}
}

// TestRunRefusesUnlistedBackends pins the backend list at the run entry: a
// value that was never a backend is refused, and 3 - the removed
// approximate "batch-lut" backend - is refused by name instead of silently
// running on an exact path.
func TestRunRefusesUnlistedBackends(t *testing.T) {
	h := newBackendHarness(t, 7)
	for _, c := range []struct {
		backend Backend
		want    string
	}{{3, "batch-lut"}, {99, "unknown backend 99"}} {
		bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
		if err != nil {
			t.Fatal(err)
		}
		opts := h.opts
		opts.Backend = c.backend
		if _, err := Run(bank, h.sched(t, "vrl"), nil, opts); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("backend %d: Run = %v, want an error naming %q", int(c.backend), err, c.want)
		}
	}
	if _, err := ParseBackend("batch-lut"); err == nil {
		t.Fatal(`ParseBackend("batch-lut") must fail`)
	}
}

// periodTurns wraps a scheduler whose Period answers bad once it has been
// asked more than after times, so the period goes wrong mid-run.
type periodTurns struct {
	core.Scheduler
	after, calls int
	bad          float64
}

func (s *periodTurns) Period(row int) float64 {
	if s.calls++; s.calls > s.after {
		return s.bad
	}
	return s.Scheduler.Period(row)
}

// TestRunRefusesStalledPeriod: a period that would re-queue a row at its
// own refresh time (zero, NaN, or too small to move t) must end the run
// with an error on every backend instead of spinning in place; the context
// deadline only bounds the test if a backend does spin.
func TestRunRefusesStalledPeriod(t *testing.T) {
	h := newBackendHarness(t, 7)
	for _, bad := range []float64{0, math.NaN(), 1e-300} {
		for _, backend := range []Backend{BackendScalar, BackendBatch, BackendAuto} {
			t.Run(fmt.Sprintf("%g/%s", bad, backend), func(t *testing.T) {
				bank, err := dram.NewBank(h.profile, retention.ExpDecay{}, retention.PatternAllZeros)
				if err != nil {
					t.Fatal(err)
				}
				// Past the seeds and a few hundred refreshes in.
				sched := &periodTurns{Scheduler: h.sched(t, "jedec"), after: 3 * h.geom.Rows, bad: bad}
				opts := Options{Duration: h.opts.Duration, TCK: h.opts.TCK, Backend: backend}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				_, err = RunContext(ctx, bank, sched, nil, opts)
				if err == nil || errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "scheduler period") {
					t.Fatalf("Run = %v, want a scheduler period error", err)
				}
			})
		}
	}
}
