package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"

	"vrldram/internal/fleet"
	"vrldram/internal/scenario"
	"vrldram/internal/serve"
)

const (
	fleetDevices = 256
	fleetRows    = 1024
	fleetShard   = 16
	fleetSlots   = 2 // shard executor slots, server workers and job workers
	fleetMix     = "nominal=2,diurnal=1,vrt-storm=1,dpd-adversary=1,aging=1,kitchen-sink=1"
)

// fleetSpec is the campaign every fleet op runs: a mixed-scenario
// population with guard, scrub, weak devices and a temperature spread, so
// every fleet-level subsystem does work.
func fleetSpec(seed int64) (fleet.Spec, error) {
	mix, err := scenario.ParseMix(fleetMix)
	if err != nil {
		return fleet.Spec{}, err
	}
	spec := fleet.Spec{
		Devices: fleetDevices, Seed: seed, Duration: 4 * hyperperiod, Rows: fleetRows, ShardSize: fleetShard,
		TempSwingC: 10, WeakFrac: 0.1, Scenarios: mix, Guard: true, Scrub: true,
	}
	return spec, spec.Validate()
}

// server is one in-process vrlserved instance on a loopback port.
type server struct {
	dir    string
	addr   string
	cancel context.CancelFunc
	done   chan error
}

// probeShard is the one-device shard a freshly started server must answer
// before it counts as up, with the result it must return.
type probeShard struct {
	ss   fleet.ShardSpec
	want string
}

func newProbe(ctx context.Context, seed int64) (probeShard, error) {
	spec := fleet.Spec{Devices: 1, Seed: seed, Duration: hyperperiod, Rows: fleetRows}
	if err := spec.Validate(); err != nil {
		return probeShard{}, err
	}
	ss := spec.Shards()[0]
	res, err := fleet.RunShard(ctx, ss, nil)
	if err != nil {
		return probeShard{}, err
	}
	return probeShard{ss, string(res.Encode())}, nil
}

// startServer starts a server whose data directory is created under dir,
// which must not exist yet, and waits until it has answered the probe
// shard correctly.
func startServer(ctx context.Context, dir string, probe probeShard) (*server, error) {
	srv, err := serve.New(serve.Options{DataDir: filepath.Join(dir, "data"), Workers: fleetSlots, JobWorkers: fleetSlots})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &server{dir: dir, addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(sctx, ln) }()
	res, err := serve.NewClient(serve.ClientOptions{Addr: s.addr}).RunShard(ctx, probe.ss)
	if err == nil && string(res.Encode()) != probe.want {
		err = errors.New("server answered the probe shard wrongly")
	}
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("server probe: %w", err)
	}
	return s, nil
}

// stop drains the server, waits for it to exit and deletes its directory.
func (s *server) stop() error {
	s.cancel()
	err := <-s.done
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// timedExecutor records a span around every shard an executor runs.
type timedExecutor struct {
	fleet.Executor
	tr         *tracer
	name       string
	parent, op int
}

func (x timedExecutor) RunShard(ctx context.Context, ss fleet.ShardSpec) (fleet.ShardResult, error) {
	id := x.tr.begin(x.name, x.parent, x.op)
	defer x.tr.end(id)
	return x.Executor.RunShard(ctx, ss)
}

// reportDigest fingerprints a campaign report apart from its dispatch
// counters (attempts, retries, hedges, resumed shards), which legitimately
// differ between executors.
func reportDigest(rep *fleet.Report) string {
	h := sha256.New()
	h.Write(rep.Spec.Canonical())
	h.Write(rep.Sum.Encode())
	fmt.Fprintf(h, "%d %d %v", rep.ShardsTotal, rep.ShardsDone, rep.QuarantinedShards())
	return hex.EncodeToString(h.Sum(nil))
}

// fleetOpOK is the fleet oracle: the campaign must finish without
// quarantining a shard and match the local-executor report.
func fleetOpOK(rep *fleet.Report, err error, refDigest string) bool {
	return err == nil && rep.Complete() && reportDigest(rep) == refDigest
}

func runFleet(ctx context.Context, c *config) (*outcome, error) {
	probe, err := newProbe(ctx, c.seed)
	if err != nil {
		return nil, err
	}
	startTraced := func(tr *tracer, name string, op int) (*server, error) {
		id := tr.begin("serve.start", 0, op)
		s, err := startServer(ctx, filepath.Join(c.workDir, name), probe)
		tr.end(id)
		return s, err
	}
	type fleetSetup struct {
		spec fleet.Spec
		srv  *server
	}
	st, setupSecs, err := repeatSetup(setupReps, func(rep int) (fleetSetup, error) {
		spec, err := fleetSpec(c.seed)
		if err != nil {
			return fleetSetup{}, err
		}
		srv, err := startTraced(c.tr, fmt.Sprintf("setup-%d", rep), setupOp(rep))
		return fleetSetup{spec, srv}, err
	}, func(old fleetSetup) error { return old.srv.stop() })
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	spec, srv := st.spec, st.srv
	defer func() {
		// Results are in by now; a failed drain only leaves files in the
		// run's scratch directory, which is removed on exit.
		if srv != nil {
			srv.stop()
		}
	}()

	type fleetOp struct {
		rep *fleet.Report
		err error
	}
	var ops []fleetOp
	// Each op after the first gets a fresh server and data directory,
	// started outside the op's timing.
	prep := func(i int, tr *tracer) error {
		if i == 0 {
			return nil
		}
		err := srv.stop()
		srv = nil
		if err == nil {
			srv, err = startTraced(tr, fmt.Sprintf("op-%d", i), i)
		}
		return err
	}
	smp, err := loop(c.budget, 1, wallClock, c.tr, prep, func(i int, tr *tracer) {
		id := tr.begin("fleet.campaign", 0, i)
		exec := timedExecutor{serve.NewShardExecutor(serve.ClientOptions{Addr: srv.addr}, fleetSlots), tr, "serve.shard", id, i}
		rep, err := fleet.Run(ctx, spec, []fleet.Executor{exec}, fleet.Options{ManifestPath: filepath.Join(srv.dir, "fleet.manifest")})
		tr.end(id)
		ops = append(ops, fleetOp{rep, err})
	})
	if err != nil {
		return nil, fmt.Errorf("fleet loop: %w", err)
	}

	// Oracle: the same spec on the in-process local executor.
	op := oracleOp(0)
	id := c.tr.begin("oracle", 0, op)
	ref, err := fleet.Run(ctx, spec, []fleet.Executor{timedExecutor{fleet.NewLocalExecutor(fleetSlots), c.tr, "fleet.local_shard", id, op}}, fleet.Options{})
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("fleet oracle: %w", err)
	}
	refDigest := reportDigest(ref)
	if !ref.Complete() {
		refDigest = "oracle quarantined shards"
	}

	out := &outcome{attempted: len(ops), info: map[string]any{}}
	var attempts, retries, hedges, quarantined, shards int64
	for _, o := range ops {
		if !fleetOpOK(o.rep, o.err, refDigest) {
			out.failed++
		}
		if o.rep != nil {
			attempts += o.rep.Attempts
			retries += o.rep.Retries
			hedges += o.rep.Hedges
			quarantined += int64(len(o.rep.Quarantined))
			shards += int64(o.rep.ShardsTotal)
		}
	}
	commonFigures(out, setupSecs, smp.ms, 1, median(smp.peakMiB), float64(fleetDevices)*spec.Duration/secPerYear)
	out.info["op_clock"] = "wall time"
	out.info["device"] = fmt.Sprintf("%d devices of %dx8 rows, %.3f s simulated each, %d-device shards", fleetDevices, fleetRows, spec.Duration, fleetShard)
	out.info["scenarios"] = fleetMix
	out.info["report_digest"] = refDigest

	if c.tr != nil {
		out.layers = metrics{}
		self := selfByOp(c.tr.snapshot())
		all := func(int) bool { return true }
		isOp := func(op int) bool { return op >= 0 }
		n := float64(len(ops))
		out.layers.set("fleet.campaign_ms", medianOrZero(values(self["fleet.campaign"], isOp)), "ms")
		if shards > 0 {
			out.layers.set("fleet.attempts_per_shard", float64(attempts)/float64(shards), "ratio")
		}
		out.layers.set("fleet.retries", float64(retries)/n, "count")
		out.layers.set("fleet.hedges", float64(hedges)/n, "count")
		out.layers.set("fleet.quarantined", float64(quarantined)/n, "count")
		out.layers.set("serve.shard_rtt_p50_ms", medianOrZero(spanDurations(c.tr.snapshot(), "serve.shard")), "ms")
		out.layers.set("fleet.local_shard_p50_ms", medianOrZero(spanDurations(c.tr.snapshot(), "fleet.local_shard")), "ms")
		out.layers.set("serve.start_ms", medianOrZero(values(self["serve.start"], all)), "ms")
		overhead(out, smp.ms, smp.traced, 1)
	}
	return out, nil
}
