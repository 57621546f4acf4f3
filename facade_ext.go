package vrldram

import (
	"fmt"
	"sort"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/memctrl"
	"vrldram/internal/profiler"
	"vrldram/internal/retention"
	"vrldram/internal/trace"
)

// This file extends the facade with the evaluation capabilities beyond
// refresh-overhead accounting: command-level latency, retention profiling,
// and variable-retention-time runs.

// LatencyStats reports a command-level controller run.
type LatencyStats struct {
	Scheduler          string
	Requests           int64
	RowHitRate         float64
	AvgLatency         float64 // cycles
	P95Latency         int64
	MaxLatency         int64
	RefreshBusyCycles  int64
	StalledByRefresh   int64
	RefreshesPostponed int64
	Violations         int
}

// MemoryLatency replays the accesses through the command-level memory
// controller (FR-FCFS, open-row policy, refresh blocking) under the named
// refresh policy, returning request-latency statistics. elasticSlack > 0
// enables JEDEC-style refresh postponement by that fraction of each row's
// period.
func (s *System) MemoryLatency(kind SchedulerKind, accesses []Access, duration, elasticSlack float64) (LatencyStats, error) {
	sched, err := s.newScheduler(kind)
	if err != nil {
		return LatencyStats{}, err
	}
	bank, err := dram.NewBank(s.profile, s.decay, s.pattern)
	if err != nil {
		return LatencyStats{}, err
	}
	reqs := make([]memctrl.Request, len(accesses))
	for i, a := range accesses {
		reqs[i] = memctrl.Request{
			Arrival: int64(a.Time/s.params.TCK + 0.5),
			Row:     a.Row,
			Write:   a.Write,
		}
	}
	st, _, err := memctrl.Run([]*dram.Bank{bank}, []core.Scheduler{sched}, reqs, memctrl.Options{
		Timing:       memctrl.DefaultTiming(),
		TCK:          s.params.TCK,
		Duration:     duration,
		ElasticSlack: elasticSlack,
	})
	if err != nil {
		return LatencyStats{}, err
	}
	return LatencyStats{
		Scheduler:          st.Scheduler,
		Requests:           st.Requests,
		RowHitRate:         st.RowHitRate,
		AvgLatency:         st.AvgLatency,
		P95Latency:         st.P95Latency,
		MaxLatency:         st.MaxLatency,
		RefreshBusyCycles:  st.RefreshBusyCycles,
		StalledByRefresh:   st.StalledByRefresh,
		RefreshesPostponed: st.RefreshesPostponed,
		Violations:         st.Violations,
	}, nil
}

// ProfileReport is the outcome of a simulated retention profiling campaign.
type ProfileReport struct {
	Rounds    int
	BinCounts map[float64]int // refresh period (s) -> rows
	MinMS     float64         // weakest measured retention (ms)
	MedianMS  float64
	MaxMS     float64
}

// ProfileChip measures the retention profile of a freshly sampled chip of
// the given geometry with a REAPER-style campaign (see internal/profiler)
// and returns its RAIDR binning. The campaign is verified conservative: it
// never reports more retention than the worst-pattern truth.
func ProfileChip(rows, cols int, seed int64) (ProfileReport, error) {
	res, err := profiler.DefaultCampaign(geomOf(rows, cols), seed)
	if err != nil {
		return ProfileReport{}, err
	}
	if bad := profiler.VerifyConservative(res); bad != 0 {
		return ProfileReport{}, fmt.Errorf("vrldram: profiler overestimated %d rows", bad)
	}
	counts, err := res.Profile.BinCounts(retention.RAIDRBins)
	if err != nil {
		return ProfileReport{}, err
	}
	vals := append([]float64(nil), res.Profile.Profiled...)
	sort.Float64s(vals)
	return ProfileReport{
		Rounds:    res.Rounds,
		BinCounts: counts,
		MinMS:     vals[0] * 1000,
		MedianMS:  vals[len(vals)/2] * 1000,
		MaxMS:     vals[len(vals)-1] * 1000,
	}, nil
}

// VRTStats reports a simulation under variable retention time.
type VRTStats struct {
	Stats
	CorrectedErrors     int64
	UncorrectableErrors int64
	RowsUpgraded        int64
}

// SimulateWithVRT runs the VRL policy against a bank whose retention is
// modulated by the default variable-retention-time process, optionally with
// online ECC+AVATAR mitigation (correct single-bit sags and demote the row
// to the fastest bin on the spot).
func (s *System) SimulateWithVRT(duration float64, mitigate bool) (VRTStats, error) {
	sched, err := s.newScheduler(SchedVRL)
	if err != nil {
		return VRTStats{}, err
	}
	bank, err := dram.NewBank(s.profile, s.decay, s.pattern)
	if err != nil {
		return VRTStats{}, err
	}
	vrt := retention.DefaultVRT()
	if err := bank.SetVRT(&vrt); err != nil {
		return VRTStats{}, err
	}
	opts := simOptions(s, duration)
	if mitigate {
		classifier := defaultClassifier()
		opts.ECC = &classifier
		opts.UpgradeOnCorrect = true
	}
	st, err := runSim(bank, sched, trace.Empty{}, opts)
	if err != nil {
		return VRTStats{}, err
	}
	eb, err := s.pm.RefreshEnergy(st, s.params.TCK)
	if err != nil {
		return VRTStats{}, err
	}
	return VRTStats{
		Stats: Stats{
			Scheduler:        st.Scheduler,
			Duration:         st.Duration,
			FullRefreshes:    st.FullRefreshes,
			PartialRefreshes: st.PartialRefreshes,
			BusyCycles:       st.BusyCycles,
			Accesses:         st.Accesses,
			Violations:       st.Violations,
			OverheadFraction: st.OverheadFraction(s.params.TCK),
			RefreshEnergy:    eb.Total,
		},
		CorrectedErrors:     st.CorrectedErrors,
		UncorrectableErrors: st.UncorrectableErrors,
		RowsUpgraded:        st.RowsUpgraded,
	}, nil
}

// AtTemperature returns a copy of the system whose bank operates at the
// given temperature (degC) while the scheduler keeps the original profile
// (measured at 85 degC); running hotter than the profiling temperature is
// expected to violate.
func (s *System) AtTemperature(tempC float64) *System {
	tm := retention.DefaultTempModel()
	out := *s
	scaled := tm.AtTemperature(s.profile, tempC)
	// The scheduler consumes the original profile; only the bank's physical
	// (True) retention changes. Build a hybrid: Profiled from the original,
	// True from the scaled copy.
	out.profile = &retention.BankProfile{
		Geom:     s.profile.Geom,
		True:     scaled.True,
		Profiled: s.profile.Profiled,
	}
	return &out
}
