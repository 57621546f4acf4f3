// Package fleet turns the single-bank simulator into a datacenter-scale
// campaign engine: a population of tens of thousands of simulated DRAM
// devices - each with its own deterministically derived retention-profile
// seed, operating temperature, and fault plan - partitioned into shards,
// dispatched across local and remote executors, and aggregated into
// mergeable fixed-bin sketches so fleet-level distributions (p99/p999
// refresh overhead, violation rates) come out byte-identical no matter how
// the shards were scheduled, retried, hedged, or resumed.
//
// The package hardens every failure path the ROADMAP's "simulate a
// datacenter, not a bank" item calls out:
//
//   - every shard attempt runs under a deadline with panic isolation;
//   - failures retry with jittered exponential backoff up to an attempt
//     budget;
//   - a shard that exhausts its budget (or fails permanently) is
//     quarantined, and the campaign still completes with an explicit
//     coverage report naming the quarantined shards;
//   - stragglers are hedged onto idle executors, with first-result-wins
//     recording so a duplicated shard cannot be counted twice;
//   - a CRC-checked manifest (the internal/checkpoint container) records
//     per-shard state durably, so a killed driver resumes only the
//     unfinished shards and reproduces the uninterrupted result bit for
//     bit.
//
// Determinism is the load-bearing property: a device's whole environment is
// a pure function of (Spec, device index), shard results are pure functions
// of their ShardSpec, and every aggregate is built from integer counters
// whose merge is associative and commutative. That is what lets the chaos
// tests demand exact equality between a fleet campaign that survived
// crashes, retries, and hedges and a plain sequential loop.
package fleet

import (
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/scenario"
	"vrldram/internal/sim"
)

// Scheduler names accepted by Spec.Scheduler; they match the policies the
// service layer (internal/serve) exposes.
var schedulerNames = []string{"jedec", "raidr", "vrl", "vrl-access"}

// Spec describes a device population. Everything about device i - its
// retention-profile seed, operating temperature, and whether it carries a
// transient-weak-cell fault plan - derives deterministically from (Spec, i),
// so any two processes planning the same Spec agree about every device
// without exchanging anything but the Spec itself.
type Spec struct {
	Devices   int     // population size (required)
	Seed      int64   // campaign master seed (default 42)
	Scheduler string  // refresh policy per device (default "vrl")
	Duration  float64 // simulated seconds per device (required)
	Rows      int     // per-device bank rows (default 1024)
	Cols      int     // per-device bank columns (default 8)
	ShardSize int     // devices per shard (default 64)

	// TempMeanC / TempSwingC shape the per-device operating temperature:
	// each device draws a deterministic temperature in
	// [mean-swing, mean+swing]. The default mean is the profiling reference
	// (85 degC), so a zero swing reproduces the paper's nominal conditions;
	// a positive swing models a fleet whose hot devices run beyond their
	// profiled margin (fault.TemperatureExcursion).
	TempMeanC  float64
	TempSwingC float64

	// WeakFrac is the fraction of devices whose fault plan includes the
	// transient-weak-cell (VRT) injector, each with its own derived seed.
	WeakFrac float64

	// Scenarios is the workload catalog: a weighted mixture of named,
	// versioned composite-stress scenarios (internal/scenario). Each device
	// deterministically draws one scenario and a scenario seed from its own
	// streams, so populations mix diurnal thermal cycles, VRT storms, and
	// aging ramps instead of one temperature/weak-cell knob pair. Empty
	// means no scenario layer (the PR 7 behavior).
	Scenarios scenario.Mix

	// Guard wires the graceful-degradation guard (internal/guard) around
	// every device's scheduler; Scrub adds the online ECC patrol scrubber
	// and repair pipeline (internal/scrub). Spares is the per-device
	// spare-row budget when scrubbing (0 = scrub default, negative = none)
	// and ScrubSweep the patrol sweep period in seconds (0 = scrub
	// default).
	Guard      bool
	Scrub      bool
	Spares     int
	ScrubSweep float64

	// Backend selects the simulator runner for every device run. The zero
	// value (sim.BackendAuto) picks the fastest exact runner; every valid
	// backend gives bit-identical results. The backend is part of the
	// spec's canonical identity, and Validate refuses any value
	// sim.Backend.Validate does not list - including 3, the removed
	// approximate "batch-lut" backend, so a stored LUT campaign is refused
	// rather than silently re-run as an exact one.
	Backend sim.Backend
}

// WithDefaults resolves zero fields to the fleet defaults.
func (s Spec) WithDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.Scheduler == "" {
		s.Scheduler = "vrl"
	}
	if s.Rows == 0 {
		s.Rows = 1024
	}
	if s.Cols == 0 {
		s.Cols = 8
	}
	if s.ShardSize == 0 {
		s.ShardSize = 64
	}
	if s.TempMeanC == 0 {
		s.TempMeanC = 85
	}
	// Pin version-0 scenario refs to the current catalog versions, so the
	// canonical spec (and the manifest bound to it) names exactly the
	// semantics the campaign ran under.
	s.Scenarios = s.Scenarios.Normalized()
	return s
}

// Validate reports the first unusable field (after default resolution).
func (s Spec) Validate() error {
	s = s.WithDefaults()
	if s.Devices <= 0 {
		return fmt.Errorf("fleet: population must be positive, got %d devices", s.Devices)
	}
	ok := false
	for _, n := range schedulerNames {
		if s.Scheduler == n {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("fleet: unknown scheduler %q", s.Scheduler)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("fleet: duration must be positive, got %g", s.Duration)
	}
	if err := (device.BankGeometry{Rows: s.Rows, Cols: s.Cols}).Validate(); err != nil {
		return err
	}
	if s.ShardSize <= 0 {
		return fmt.Errorf("fleet: shard size must be positive, got %d", s.ShardSize)
	}
	if s.TempSwingC < 0 {
		return fmt.Errorf("fleet: temperature swing must be non-negative, got %g", s.TempSwingC)
	}
	if s.WeakFrac < 0 || s.WeakFrac > 1 {
		return fmt.Errorf("fleet: weak-device fraction %g outside [0,1]", s.WeakFrac)
	}
	if err := s.Scenarios.Validate(); err != nil {
		return err
	}
	if s.ScrubSweep < 0 {
		return fmt.Errorf("fleet: scrub sweep period must be non-negative, got %g", s.ScrubSweep)
	}
	if err := s.Backend.Validate(); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// Canonical returns the spec's canonical binary form (after default
// resolution): the identity the manifest binds to, so a resumed campaign
// can only continue over the exact population it started with.
func (s Spec) Canonical() []byte {
	s = s.WithDefaults()
	var e core.StateEncoder
	e.Tag("fspec3")
	s.encodeTo(&e)
	return e.Data()
}

func (s Spec) encodeTo(e *core.StateEncoder) {
	e.Int(int64(s.Devices))
	e.Int(s.Seed)
	e.Bytes([]byte(s.Scheduler))
	e.Float(s.Duration)
	e.Int(int64(s.Rows))
	e.Int(int64(s.Cols))
	e.Int(int64(s.ShardSize))
	e.Float(s.TempMeanC)
	e.Float(s.TempSwingC)
	e.Float(s.WeakFrac)
	s.Scenarios.EncodeTo(e)
	e.Bool(s.Guard)
	e.Bool(s.Scrub)
	e.Int(int64(s.Spares))
	e.Float(s.ScrubSweep)
	e.Int(int64(s.Backend))
}

func decodeSpecFrom(d *core.StateDecoder) Spec {
	var s Spec
	s.Devices = int(d.Int())
	s.Seed = d.Int()
	s.Scheduler = string(d.Bytes())
	s.Duration = d.Float()
	s.Rows = int(d.Int())
	s.Cols = int(d.Int())
	s.ShardSize = int(d.Int())
	s.TempMeanC = d.Float()
	s.TempSwingC = d.Float()
	s.WeakFrac = d.Float()
	s.Scenarios = scenario.DecodeMixFrom(d)
	s.Guard = d.Bool()
	s.Scrub = d.Bool()
	s.Spares = int(d.Int())
	s.ScrubSweep = d.Float()
	s.Backend = sim.Backend(d.Int())
	return s
}

// --- per-device derivation ---------------------------------------------------

// Device is the fully resolved environment of one population member.
type Device struct {
	Index    int
	Seed     int64   // retention-profile Monte Carlo seed
	TempC    float64 // operating temperature over the whole window (degC)
	Weak     bool    // transient-weak-cell fault plan active
	WeakSeed int64   // VRT process seed when Weak

	// Scenario is the device's draw from the spec's workload catalog (the
	// zero Ref when the catalog is empty), and ScenSeed the scenario master
	// seed its stressor streams derive from.
	Scenario scenario.Ref
	ScenSeed int64
}

// splitmix64 is the standard 64-bit finalizing mixer; it drives every
// per-device draw so the population is reproducible from the Spec alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// posSeed folds a hash into a positive, non-zero int64 seed.
func posSeed(h uint64) int64 {
	s := int64(h &^ (1 << 63))
	if s == 0 {
		return 1
	}
	return s
}

// Device derives population member i. The derivation hashes (Seed, i) once
// and then splits independent streams for the profile seed, the temperature
// draw, and the fault plan, so changing one Spec knob (say, WeakFrac) never
// perturbs the others.
func (s Spec) Device(i int) Device {
	s = s.WithDefaults()
	h := splitmix64(uint64(s.Seed)) ^ splitmix64(uint64(i)+0x6a09e667f3bcc909)
	d := Device{
		Index: i,
		Seed:  posSeed(splitmix64(h)),
		TempC: s.TempMeanC + s.TempSwingC*(2*unit(splitmix64(h^0x517cc1b727220a95))-1),
	}
	if s.WeakFrac > 0 && unit(splitmix64(h^0x2545f4914f6cdd1d)) < s.WeakFrac {
		d.Weak = true
		d.WeakSeed = posSeed(splitmix64(h ^ 0x9e3779b97f4a7c15))
	}
	// The scenario pick and seed ride their own salted streams, so adding a
	// catalog to a Spec (or reweighting it) never perturbs the profile
	// seed, temperature, or fault-plan draws of any device.
	if !s.Scenarios.Empty() {
		d.Scenario = s.Scenarios.Pick(splitmix64(h ^ 0xd6e8feb86659fd93))
		d.ScenSeed = posSeed(splitmix64(h ^ 0xc2b2ae3d27d4eb4f))
	}
	return d
}

// --- shard planning ----------------------------------------------------------

// NumShards returns how many shards the population partitions into.
func (s Spec) NumShards() int {
	s = s.WithDefaults()
	if s.Devices <= 0 {
		return 0
	}
	return (s.Devices + s.ShardSize - 1) / s.ShardSize
}

// Shards deterministically partitions the population into contiguous
// device-index ranges. Every process planning the same Spec produces the
// same shard list, which is what makes shard indices meaningful across the
// wire and across driver restarts.
func (s Spec) Shards() []ShardSpec {
	s = s.WithDefaults()
	n := s.NumShards()
	out := make([]ShardSpec, 0, n)
	for i := 0; i < n; i++ {
		start := i * s.ShardSize
		count := s.ShardSize
		if start+count > s.Devices {
			count = s.Devices - start
		}
		out = append(out, ShardSpec{Spec: s, Index: i, Start: start, Count: count})
	}
	return out
}
