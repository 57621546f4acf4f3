package vrldram

import (
	"context"
	"fmt"
	"io"

	"vrldram/internal/checkpoint"
	"vrldram/internal/dram"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// This file extends the facade with the crash-safety envelope: cancellable,
// checkpointed simulation runs that a killed process can resume to
// bit-identical results (see internal/checkpoint and docs/ARCHITECTURE.md).

// RunControl configures cancellation and checkpointing for a simulation
// run. The zero value runs exactly like Simulate: no context, no
// checkpoint file.
type RunControl struct {
	// Context cancels the run cooperatively (nil = context.Background()):
	// cancellation or deadline expiry stops the simulation at the next
	// event boundary, writes a final snapshot when checkpointing is
	// enabled, and returns the partial statistics with an error wrapping
	// context.Canceled / context.DeadlineExceeded.
	Context context.Context
	// CheckpointPath enables crash-safe snapshots to this file ("" = off).
	// Snapshots are CRC-32-checksummed, written atomically, and rotated
	// through numbered generations (<path>.1 is the previous snapshot).
	CheckpointPath string
	// CheckpointEvery is the simulated time between snapshots (seconds);
	// when zero, one eighth of the run duration is used.
	CheckpointEvery float64
	// Resume loads the newest good generation of CheckpointPath and
	// continues that run instead of starting cold. The system, scheduler
	// kind, accesses, and duration must match the interrupted run's.
	Resume bool
	// Generations is how many prior snapshots to retain (default 3).
	Generations int
	// OnEvent, when non-nil, receives one-line progress notes (resume
	// source, fallback to an older generation) for operator visibility.
	OnEvent func(msg string)
	// Backend selects the simulator execution strategy by name ("" = auto;
	// see BackendNames). Every backend produces statistics and checkpoints
	// bit-identical to the scalar reference, so this is a speed knob, not a
	// semantics knob.
	Backend string
}

// BackendNames lists the valid RunControl.Backend names in menu order.
func BackendNames() []string { return sim.BackendNames() }

// ParseBackend validates a simulator backend name ("" = auto), returning
// the canonical spelling or an error listing the valid names.
func ParseBackend(name string) (string, error) {
	b, err := sim.ParseBackend(name)
	if err != nil {
		return "", err
	}
	return b.String(), nil
}

// SimulateControlled is Simulate under a RunControl: the same simulation,
// but cancellable and crash-safe. Unlike Simulate it returns the partial
// statistics accumulated so far when the run stops early, so an interrupted
// run is still reportable; use errors.Is(err, context.Canceled) to
// distinguish interruption from failure.
func (s *System) SimulateControlled(kind SchedulerKind, accesses []Access, duration float64, rc RunControl) (Stats, error) {
	sched, err := s.newScheduler(kind)
	if err != nil {
		return Stats{}, err
	}
	bank, err := dram.NewBank(s.profile, s.decay, s.pattern)
	if err != nil {
		return Stats{}, err
	}
	recs := make([]trace.Record, len(accesses))
	for i, a := range accesses {
		op := trace.Read
		if a.Write {
			op = trace.Write
		}
		recs[i] = trace.Record{Time: a.Time, Op: op, Row: a.Row}
	}
	opts := sim.Options{Duration: duration, TCK: s.params.TCK}
	opts.Backend, err = sim.ParseBackend(rc.Backend)
	if err != nil {
		return Stats{}, err
	}

	var mgr *checkpoint.Manager
	if rc.CheckpointPath != "" {
		mgr, err = checkpoint.NewManager(rc.CheckpointPath, rc.Generations)
		if err != nil {
			return Stats{}, err
		}
		opts.CheckpointEvery = rc.CheckpointEvery
		if opts.CheckpointEvery <= 0 {
			opts.CheckpointEvery = duration / 8
		}
		opts.CheckpointSink = func(cp *sim.Checkpoint) error {
			return mgr.Save(func(w io.Writer) error { return checkpoint.EncodeSim(w, cp) })
		}
	}
	if rc.Resume {
		if mgr == nil {
			return Stats{}, fmt.Errorf("vrldram: Resume requires a CheckpointPath")
		}
		var cp *sim.Checkpoint
		from, err := mgr.Load(func(r io.Reader) error {
			var derr error
			cp, derr = checkpoint.DecodeSim(r)
			return derr
		})
		if err != nil {
			return Stats{}, err
		}
		opts.Resume = cp
		if rc.OnEvent != nil {
			rc.OnEvent(fmt.Sprintf("resuming from %s (t=%.3fs of %.3fs)", from, cp.Time, cp.Duration))
		}
	}

	st, runErr := sim.RunContext(rc.Context, bank, sched, trace.NewSliceSource(recs), opts)
	out := s.statsOf(st)
	return out, runErr
}

// statsOf maps simulator statistics into the facade's Stats, with
// best-effort energy accounting (zero on a partial run the power model
// rejects).
func (s *System) statsOf(st sim.Stats) Stats {
	out := Stats{
		Scheduler:        st.Scheduler,
		Duration:         st.Duration,
		FullRefreshes:    st.FullRefreshes,
		PartialRefreshes: st.PartialRefreshes,
		BusyCycles:       st.BusyCycles,
		Accesses:         st.Accesses,
		Violations:       st.Violations,
		OverheadFraction: st.OverheadFraction(s.params.TCK),
	}
	if eb, err := s.pm.RefreshEnergy(st, s.params.TCK); err == nil {
		out.RefreshEnergy = eb.Total
	}
	return out
}
