package memctrl

import (
	"slices"
	"sort"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/device"
	"vrldram/internal/dram"
	"vrldram/internal/rank"
	"vrldram/internal/retention"
)

// recorder wraps a scheduler and logs the instants the controller hands it.
type recorder struct {
	core.Scheduler
	ops      map[int][]float64 // row -> RefreshOp instants
	accesses map[int][]float64 // row -> OnAccess instants
}

func record(s core.Scheduler) *recorder {
	return &recorder{Scheduler: s, ops: map[int][]float64{}, accesses: map[int][]float64{}}
}

func (r *recorder) RefreshOp(row int, now float64) core.Op {
	r.ops[row] = append(r.ops[row], now)
	return r.Scheduler.RefreshOp(row, now)
}

func (r *recorder) OnAccess(row int, now float64) {
	r.accesses[row] = append(r.accesses[row], now)
	r.Scheduler.OnAccess(row, now)
}

// TestRefreshOpSeesRefreshStart lands a refresh while a row is open: the
// refresh must wait for the precharge, and the scheduler must be told the
// instant the bank model refreshes at, not the one before the close.
func TestRefreshOpSeesRefreshStart(t *testing.T) {
	f := setup(t)
	rec := record(f.sched(t, func() (core.Scheduler, error) { return core.NewRAIDR(f.profile, core.Config{Restore: f.rm}) }))

	// The first refresh instant past cycle 1000 with no other refresh in
	// the 64 cycles before it, so only the request below can hold the bank.
	var cycles []int64
	for r := 0; r < f.profile.Geom.Rows; r++ {
		cycles = append(cycles, int64(core.StaggerFrac(r)*rec.Period(r)/f.params.TCK))
	}
	sorted := slices.Clone(cycles)
	slices.Sort(sorted)
	var at int64 = -1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > 1000 && sorted[i]-sorted[i-1] > 64 {
			at = sorted[i]
			break
		}
	}
	if at < 0 {
		t.Fatal("no isolated refresh instant")
	}
	refreshed := slices.Index(cycles, at)
	accessed := 42
	if refreshed == accessed {
		accessed++
	}

	// The request opens its row 5 cycles before the refresh is due; tRAS
	// keeps it open past the due instant.
	opts := f.opts
	opts.Duration = float64(at+200) * f.params.TCK
	bank := f.bank(t)
	if _, _, err := run1(bank, rec, []Request{{Arrival: at - 5, Row: accessed}}, opts); err != nil {
		t.Fatal(err)
	}
	got := rec.ops[refreshed]
	if len(got) != 1 {
		t.Fatalf("row %d saw %d refreshes, want 1", refreshed, len(got))
	}
	if got[0] <= float64(at)*f.params.TCK {
		t.Fatalf("refresh issued at %g, inside the open row's tRAS window (due %g)", got[0], float64(at)*f.params.TCK)
	}
	lastT := bank.State().LastT
	for row, ops := range rec.ops {
		if row == accessed {
			continue
		}
		if ops[len(ops)-1] != lastT[row] {
			t.Errorf("row %d: RefreshOp saw %g, bank refreshed at %g", row, ops[len(ops)-1], lastT[row])
		}
	}
}

// TestActivationsReachScheduler checks that a row-miss request restores the
// row in the bank model and notifies the row's scheduler (the VRL-Access
// hook) on the multi-bank and subarray paths.
func TestActivationsReachScheduler(t *testing.T) {
	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		t.Fatal(err)
	}
	tck := device.Default90nm().TCK
	cases := []struct {
		name  string
		banks int
		sub   int
		req   Request
	}{
		{"banks", 2, 0, Request{Arrival: 1000, Bank: 1, Row: 5}},
		{"subarrays", 1, 8, Request{Arrival: 1000, Row: 900}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var recs []*recorder
			banks, scheds, err := rank.NewRank(tc.banks, retention.DefaultCellDistribution(), 1024, 32, 5,
				func(p *retention.BankProfile) (core.Scheduler, error) {
					s, err := core.NewVRLAccess(p, core.Config{Restore: rm})
					if err != nil {
						return nil, err
					}
					recs = append(recs, record(s))
					return recs[len(recs)-1], nil
				})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Timing: DefaultTiming(), TCK: tck, Duration: 4000 * tck, Subarrays: tc.sub}
			_, served, err := Run(banks, scheds, []Request{tc.req}, opts)
			if err != nil {
				t.Fatal(err)
			}
			r := served[0]
			if r.RowHit {
				t.Fatal("a cold request cannot hit")
			}
			when := float64(r.Start) * tck
			if got := recs[r.Bank].accesses[r.Row]; !slices.Equal(got, []float64{when}) {
				t.Fatalf("OnAccess saw %v, want [%g]", got, when)
			}
			st := banks[r.Bank].State()
			if st.LastT[r.Row] != when || st.Charge[r.Row] != 1 {
				t.Fatalf("bank model not restored: lastT %g charge %g, want %g and 1", st.LastT[r.Row], st.Charge[r.Row], when)
			}
			for b, rec := range recs {
				if b != r.Bank && len(rec.accesses) != 0 {
					t.Fatalf("bank %d saw another bank's activation: %v", b, rec.accesses)
				}
			}
		})
	}
}

// FuzzControllerInvariants drives small random request streams, clustered
// around refresh instants, through every bank/subarray/granularity/slack
// combination and checks the engine's invariants: Arrival <= Start <
// Finish, no two services overlap on one unit, no integrity violations
// under RAIDR/VRL, and with one bank per-bank and all-bank commands agree.
func FuzzControllerInvariants(f *testing.F) {
	f.Add([]byte{0, 180, 0, 3, 0, 190, 1, 3, 1, 200, 2, 7, 1, 250, 3, 9}, uint8(0), uint8(0), false, uint8(0), false)
	f.Add([]byte{5, 100, 1, 2, 5, 101, 0, 2, 5, 102, 3, 40, 9, 0, 2, 63}, uint8(3), uint8(4), false, uint8(8), true)
	f.Add([]byte{2, 150, 0, 1, 2, 160, 1, 33, 3, 170, 2, 17, 4, 190, 0, 2}, uint8(1), uint8(2), true, uint8(0), true)
	f.Add([]byte{1, 0, 0, 0, 1, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3}, uint8(0), uint8(1), true, uint8(5), false)

	rm, err := core.PaperRestoreModel(device.Default90nm(), device.PaperBank)
	if err != nil {
		f.Fatal(err)
	}
	const (
		rows = 64
		cols = 8
	)
	tck := device.Default90nm().TCK
	f.Fuzz(func(t *testing.T, data []byte, nBanks, nSub uint8, allBank bool, slack8 uint8, vrl bool) {
		n := 1 + int(nBanks%4)
		build := func() ([]*dram.Bank, []core.Scheduler) {
			banks, scheds, err := rank.NewRank(n, retention.DefaultCellDistribution(), rows, cols, 11,
				func(p *retention.BankProfile) (core.Scheduler, error) {
					if vrl {
						return core.NewVRL(p, core.Config{Restore: rm})
					}
					return core.NewRAIDR(p, core.Config{Restore: rm})
				})
			if err != nil {
				t.Fatal(err)
			}
			return banks, scheds
		}
		opts := Options{
			Timing:       DefaultTiming(),
			TCK:          tck,
			Duration:     0.1,
			ElasticSlack: float64(slack8%9) / 64, // [0, 0.125]
			Subarrays:    int(nSub % 9),
		}
		if allBank {
			opts.Granularity = AllBankRefresh
		}

		// Requests cluster just before and after first refresh instants, so
		// they collide with refreshes instead of missing them.
		_, scheds := build()
		horizon := int64(opts.Duration / tck)
		anchors := []int64{0}
		for b := 0; b < n; b++ {
			for r := 0; r < rows; r++ {
				if at := int64(core.StaggerFrac(r*n+b) * scheds[b].Period(r) / tck); at+64 < horizon {
					anchors = append(anchors, at)
				}
			}
		}
		var reqs []Request
		for i := 0; i+4 <= len(data) && len(reqs) < 256; i += 4 {
			at := anchors[int(data[i])%len(anchors)] + int64(data[i+1]) - 192
			reqs = append(reqs, Request{
				Arrival: max(at, 0),
				Bank:    int(data[i+2]) % n,
				Row:     int(data[i+3]) % rows,
				Write:   data[i+2]&0x80 != 0,
			})
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })

		run := func(o Options) (Stats, []Request) {
			banks, scheds := build()
			st, served, err := Run(banks, scheds, reqs, o)
			if err != nil {
				t.Fatal(err)
			}
			return st, served
		}
		if allBank && opts.ElasticSlack > 0 {
			banks, scheds := build()
			if _, _, err := Run(banks, scheds, reqs, opts); err == nil {
				t.Fatal("elastic all-bank commands accepted")
			}
			opts.ElasticSlack = 0
		}
		st, served := run(opts)

		if len(served) != len(reqs) || st.Requests != int64(len(reqs)) {
			t.Fatalf("served %d (stats %d) of %d requests", len(served), st.Requests, len(reqs))
		}
		if st.Violations != 0 {
			t.Fatalf("%d integrity violations", st.Violations)
		}
		subs := max(opts.Subarrays, 1)
		perSub := (rows + subs - 1) / subs
		byUnit := map[int][]Request{}
		for _, r := range served {
			if r.Arrival > r.Start || r.Start >= r.Finish {
				t.Fatalf("request %+v: want Arrival <= Start < Finish", r)
			}
			u := r.Bank*subs + r.Row/perSub
			byUnit[u] = append(byUnit[u], r)
		}
		for u, rs := range byUnit {
			sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
			for i := 1; i < len(rs); i++ {
				if rs[i].Start < rs[i-1].Finish {
					t.Fatalf("unit %d: %+v starts before %+v finishes", u, rs[i], rs[i-1])
				}
			}
		}

		if n == 1 {
			o := opts
			o.ElasticSlack = 0
			o.Granularity = PerBankRefresh
			perSt, perServed := run(o)
			o.Granularity = AllBankRefresh
			allSt, allServed := run(o)
			if perSt != allSt || !slices.Equal(perServed, allServed) {
				t.Fatalf("one bank: per-bank %+v differs from all-bank %+v", perSt, allSt)
			}
		}
	})
}
