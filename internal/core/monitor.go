package core

// Optional capabilities a refresh scheduler (or a wrapper around one) can
// implement to participate in online safety monitoring. The simulator
// probes for these with type assertions, so a plain scheduler pays nothing.

// SenseMonitor receives the sensed weakest-cell charge of every refresh
// operation, before restoration. A safety controller uses the stream to
// detect eroding margins while the charge is still above the sensing limit.
type SenseMonitor interface {
	// OnSense reports that the row was sensed at time now (seconds) with the
	// given normalized charge.
	OnSense(row int, now, charge float64)
}

// Demoter generalizes the one-shot Upgrader: instead of pinning a row to
// the fastest bin immediately, a Demoter steps the row one rung down a
// degradation ladder, so a single ECC correction costs one bin of overhead
// rather than all of them.
type Demoter interface {
	// Demote moves the row one step toward a faster refresh schedule.
	Demote(row int)
}

// GuardStats aggregates what a graceful-degradation controller did during a
// run. The zero value means "no guard in the scheduler stack".
type GuardStats struct {
	Alarms       int64 // margin alarms (sense below the warn threshold)
	Demotions    int64 // one-rung demotions to a faster bin
	Promotions   int64 // one-rung promotions back toward the nominal bin
	Escalations  int64 // rows pinned to the floor period after repeated alarms
	BreakerTrips int64 // global circuit-breaker trips
	// TimeDegraded is the total simulated time (seconds) spent with the
	// circuit breaker tripped (whole bank at the floor period).
	TimeDegraded float64
}

// GuardReporter exposes a guard's counters; now is the end-of-run time used
// to close any still-open degraded interval.
type GuardReporter interface {
	GuardSnapshot(now float64) GuardStats
}

// Promoter is the counterpart of Demoter: an external repair authority
// (e.g. a patrol scrubber that has seen K consecutive clean reads) steps
// the row one rung back toward its nominal schedule. Like Demote, it is an
// advisory hook: a scheduler without a degradation ladder may ignore it.
type Promoter interface {
	// Promote moves the row one step back toward its nominal refresh
	// schedule (clearing an escalation first, if one is pending).
	Promote(row int)
}

// ScrubStats aggregates what an online patrol scrubber (internal/scrub) did
// during a run. The zero value means "no scrubber attached".
type ScrubStats struct {
	RowsPatrolled int64 // patrol read slots completed (quarantined rows included)
	Corrected     int64 // ECC-corrected reads seen by the repair pipeline
	Uncorrectable int64 // uncorrectable reads seen by the repair pipeline
	Reprofiles    int64 // targeted single-row re-profiling campaigns run
	RowsHealed    int64 // suspect rows promoted back after K clean patrols
	RowsRemapped  int64 // rows quarantined to a spare
	HardFails     int64 // uncorrectable rows with no spare left (escalated)
	BusyRetries   int64 // patrol reads deferred because the bank was busy
	SLOMisses     int64 // tREFW windows whose patrol coverage fell below the SLO
	SparesLeft    int   // spare rows still unallocated at snapshot time
}

// ScrubReporter exposes a scrubber's counters; now is the end-of-run time
// used to close out any elapsed-but-unrolled coverage windows.
type ScrubReporter interface {
	ScrubSnapshot(now float64) ScrubStats
}

// FaultCounter is implemented by fault injectors (scheduler wrappers and
// trace corruptors) so the harness can report how many faults a run saw.
type FaultCounter interface {
	FaultsInjected() int64
}
