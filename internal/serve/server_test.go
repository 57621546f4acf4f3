package serve

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vrldram/internal/exp"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// harness runs one server generation at a time over a shared data directory,
// with drain/crash/restart controls for the recovery tests.
type harness struct {
	t    *testing.T
	dir  string
	addr string
	opts Options

	srv    *Server
	cancel context.CancelFunc
	done   chan struct{}
}

func newHarness(t *testing.T, opts Options) *harness {
	h := &harness{t: t, dir: t.TempDir(), opts: opts}
	h.start("")
	return h
}

func (h *harness) start(addr string) {
	opts := h.opts
	opts.DataDir = h.dir
	srv, err := New(opts)
	if err != nil {
		h.t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt > 50 {
			h.t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Only the first start picks the address: a restart rebinds the same
	// one while fault-injecting dialers may still be reading h.addr, so
	// rewriting it (even with an equal value) would be a data race.
	if h.addr == "" {
		h.addr = ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ctx, ln)
	}()
	h.srv, h.cancel, h.done = srv, cancel, done
	h.t.Cleanup(func() {
		cancel()
		<-done
	})
}

func (h *harness) drain() {
	h.cancel()
	<-h.done
}

func (h *harness) crash() {
	h.srv.Crash()
	<-h.done
}

func (h *harness) restart() { h.start(h.addr) }

func (h *harness) client() *Client {
	return NewClient(ClientOptions{
		Addr:           h.addr,
		MaxAttempts:    50,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
		HeartbeatEvery: 200 * time.Millisecond,
		IdleTimeout:    3 * time.Second,
		Seed:           7,
		Logf:           h.t.Logf,
	})
}

// waitCheckpoint blocks until some session under the data dir has saved a
// fresh simulation checkpoint since the given time, or the stop channel
// closes first. It returns the time to pass on the next call.
func (h *harness) waitCheckpoint(since time.Time, stop <-chan struct{}) time.Time {
	deadline := time.After(30 * time.Second)
	for {
		paths, _ := filepath.Glob(filepath.Join(h.dir, "sess-*", "sim.ckpt"))
		for _, p := range paths {
			if info, err := os.Stat(p); err == nil && info.ModTime().After(since) {
				return info.ModTime()
			}
		}
		select {
		case <-stop:
			return since
		case <-deadline:
			h.t.Fatal("no fresh checkpoint appeared within 30s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func testSpec(sched string) SimSpec {
	return SimSpec{Scheduler: sched, Seed: 11, Duration: 0.2, Rows: 2048, Cols: 8}
}

// renderResults flattens campaign results into their full printed form, which
// covers every field of every result while being indifferent to nil-versus-
// empty slices (the wire codec decodes empty as nil).
func renderResults(t *testing.T, results []*exp.Result) string {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range results {
		if err := r.Fprint(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func TestRemoteSimMatchesLocal(t *testing.T) {
	h := newHarness(t, Options{})
	spec := testSpec("vrl")
	recs := mkRecords(3000, spec.Rows, spec.Duration)

	want, err := RunLocal(spec, trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.client().RunSim(context.Background(), spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("remote stats diverge from local:\n got %+v\nwant %+v", got, want)
	}
}

func TestRemoteCampaignMatchesLocal(t *testing.T) {
	h := newHarness(t, Options{})
	// Deterministic experiments only: tab1 embeds wall-clock timings, which
	// can never be equal across two runs.
	spec := CampaignSpec{IDs: []string{"fig1a", "fig5"}, Duration: 0.1}

	want, err := exp.RunCampaign(context.Background(), spec.config(1), exp.CampaignOptions{IDs: spec.IDs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.client().RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderResults(t, got), renderResults(t, want); g != w {
		t.Fatalf("remote campaign diverges from local:\n got:\n%s\nwant:\n%s", g, w)
	}
}

func TestDrainParksAndRestartResumes(t *testing.T) {
	h := newHarness(t, Options{CheckpointEvery: 0.02})
	spec := testSpec("vrl-access")
	recs := mkRecords(4000, spec.Rows, spec.Duration)
	want, err := RunLocal(spec, trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}

	resCh := make(chan struct{})
	var got sim.Stats
	var runErr error
	go func() {
		defer close(resCh)
		st, err := h.client().RunSim(context.Background(), spec, recs)
		got, runErr = st, err
	}()

	// Let the job reach at least one durable checkpoint, then drain: the
	// server must stop cleanly with the session parked, and a restarted
	// server must finish the job for the still-retrying client.
	h.waitCheckpoint(time.Time{}, resCh)
	h.drain()
	select {
	case <-resCh:
		// The job completed before the drain landed; equality still holds.
	default:
		h.restart()
	}
	<-resCh
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got != want {
		t.Fatalf("post-drain stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestStalledClientThrottlesOnlyItself pins the admission/backpressure
// contract: with a single worker, a client that submits a spec and then
// stalls mid-stream consumes no pool capacity, so another session runs to
// completion unhindered.
func TestStalledClientThrottlesOnlyItself(t *testing.T) {
	h := newHarness(t, Options{Workers: 1})

	// Session A: handshake, submit, one batch... then silence.
	nc := rawDial(t, h.addr)
	defer nc.Close()
	rawWrite(t, nc, FrameHello, Hello{Proto: ProtocolVersion}.encode())
	typ, payload := rawRead(t, nc)
	if typ != FrameWelcome {
		t.Fatalf("expected welcome, got frame %d", typ)
	}
	if _, err := decodeWelcome(payload); err != nil {
		t.Fatal(err)
	}
	stalledSpec := testSpec("jedec")
	rawWrite(t, nc, FrameSubmit, Submit{Kind: JobSim, Sim: stalledSpec}.encode())
	stallRecs := mkRecords(256, stalledSpec.Rows, stalledSpec.Duration)
	blob, err := encodeBatchBlob(stallRecs)
	if err != nil {
		t.Fatal(err)
	}
	rawWrite(t, nc, FrameTrace, TraceBatch{Start: 0, Blob: blob}.encode())
	// No EOF: session A now sits mid-ingest for the rest of the test.

	// Session B: a complete run through the same single-worker server.
	spec := testSpec("raidr")
	recs := mkRecords(2000, spec.Rows, spec.Duration)
	want, err := RunLocal(spec, trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	got, err := h.client().RunSim(ctx, spec, recs)
	if err != nil {
		t.Fatalf("session B should complete while A stalls: %v", err)
	}
	if got != want {
		t.Fatalf("session B stats diverge:\n got %+v\nwant %+v", got, want)
	}
}

func TestAdmissionControl(t *testing.T) {
	h := newHarness(t, Options{MaxSessions: 1})

	first := rawDial(t, h.addr)
	defer first.Close()
	rawWrite(t, first, FrameHello, Hello{Proto: ProtocolVersion}.encode())
	if typ, _ := rawRead(t, first); typ != FrameWelcome {
		t.Fatalf("first session refused: frame %d", typ)
	}

	second := rawDial(t, h.addr)
	defer second.Close()
	rawWrite(t, second, FrameHello, Hello{Proto: ProtocolVersion}.encode())
	typ, payload := rawRead(t, second)
	if typ != FrameError {
		t.Fatalf("expected admission refusal, got frame %d", typ)
	}
	ei, err := decodeError(payload)
	if err != nil || ei.Code != ErrCodeFull {
		t.Fatalf("expected ErrCodeFull, got %+v (%v)", ei, err)
	}
}

func TestUnknownTokenRejected(t *testing.T) {
	h := newHarness(t, Options{})
	nc := rawDial(t, h.addr)
	defer nc.Close()
	rawWrite(t, nc, FrameHello, Hello{Proto: ProtocolVersion, Token: "no-such-token"}.encode())
	typ, payload := rawRead(t, nc)
	if typ != FrameError {
		t.Fatalf("expected error, got frame %d", typ)
	}
	if ei, err := decodeError(payload); err != nil || ei.Code != ErrCodeFatal {
		t.Fatalf("expected fatal error, got %+v (%v)", ei, err)
	}
}

func TestHalfOpenConnectionReaped(t *testing.T) {
	h := newHarness(t, Options{IdleTimeout: 150 * time.Millisecond})
	nc := rawDial(t, h.addr)
	defer nc.Close()
	rawWrite(t, nc, FrameHello, Hello{Proto: ProtocolVersion}.encode())
	if typ, _ := rawRead(t, nc); typ != FrameWelcome {
		t.Fatalf("expected welcome, got frame %d", typ)
	}
	// Stay silent past the idle timeout: the server must hang up.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err == nil {
		t.Fatal("server kept a silent connection alive past its idle timeout")
	}
}

func TestInvalidSpecFailsSession(t *testing.T) {
	h := newHarness(t, Options{})
	nc := rawDial(t, h.addr)
	defer nc.Close()
	rawWrite(t, nc, FrameHello, Hello{Proto: ProtocolVersion}.encode())
	typ, _ := rawRead(t, nc)
	if typ != FrameWelcome {
		t.Fatalf("expected welcome, got frame %d", typ)
	}
	rawWrite(t, nc, FrameSubmit, Submit{Kind: JobSim, Sim: SimSpec{Scheduler: "nonsense", Duration: 1}}.encode())
	typ, payload := rawRead(t, nc)
	if typ != FrameError {
		t.Fatalf("expected error, got frame %d", typ)
	}
	if ei, err := decodeError(payload); err != nil || ei.Code != ErrCodeFatal {
		t.Fatalf("expected fatal error, got %+v (%v)", ei, err)
	}
}

// --- raw wire helpers --------------------------------------------------------

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return nc
}

func rawWrite(t *testing.T, nc net.Conn, typ byte, payload []byte) {
	t.Helper()
	nc.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(nc, typ, payload); err != nil {
		t.Fatal(err)
	}
}

func rawRead(t *testing.T, nc net.Conn) (byte, []byte) {
	t.Helper()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}
