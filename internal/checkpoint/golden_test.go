package checkpoint

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// goldenSimHex is a "sim3" container of goldenSim() as the codec wrote it
// before sim.Stats grew its shared EncodeTo/DecodeStatsFrom pair.
// Checkpoints already on disk must keep decoding to the same state, and
// re-encoding must reproduce the container byte for byte.
const goldenSimHex = "56524c43010001f101000000000000040000000000000073696d33fa7e6abc74" +
	"93c83ffa7e6abc7493e83f030000000000000076726c03000000000000007672" +
	"6cfa7e6abc7493e83f0100000000000000020000000000000003000000000000" +
	"0004000000000000000000000000001640060000000000000007000000000000" +
	"00080000000000000009000000000000000a000000000000000b000000000000" +
	"000c000000000000000d000000000000000e000000000000000f000000000000" +
	"00fca9f1d24d62903f1100000000000000120000000000000013000000000000" +
	"0014000000000000001500000000000000160000000000000017000000000000" +
	"00180000000000000019000000000000001a0000000000000002000000000000" +
	"009a9999999999c93f0100000000000000000000000000d03f00000000000000" +
	"000300000000000000cdccccccccccec3f9a9999999999e93f666666666666e6" +
	"3f03000000000000009a9999999999b93f333333333333c33f52b81e85eb51c8" +
	"3f01000000000000000200000000000000295c8fc2f528bc3f333333333333d3" +
	"3f01000000000000000200000000000000050000000000000001e17a14ae47e1" +
	"ca3f5700000000000000010000000000000052b81e85eb51c83f82e2c798bb96" +
	"c83f030000000000000001020302000000000000000405010000000000000006" +
	"1bfe0ff0"

// goldenSim fills every checkpoint field, and every Stats field with a
// distinct value, so a swapped or dropped field changes the blob.
func goldenSim() *sim.Checkpoint {
	return &sim.Checkpoint{
		Time: 0.192, Duration: 0.768, Scheduler: "vrl",
		Stats: sim.Stats{
			Scheduler: "vrl", Duration: 0.768,
			FullRefreshes: 1, PartialRefreshes: 2, BusyCycles: 3, Accesses: 4,
			ChargeRestored: 5.5, Violations: 6, CorrectedErrors: 7, UncorrectableErrors: 8,
			RowsUpgraded: 9, FaultsInjected: 10,
			Guard: core.GuardStats{Alarms: 11, Demotions: 12, Promotions: 13, Escalations: 14,
				BreakerTrips: 15, TimeDegraded: 0.016},
			Scrub: core.ScrubStats{RowsPatrolled: 17, Corrected: 18, Uncorrectable: 19, Reprofiles: 20,
				RowsHealed: 21, RowsRemapped: 22, HardFails: 23, BusyRetries: 24, SLOMisses: 25, SparesLeft: 26},
		},
		Events: []sim.PendingEvent{{Time: 0.2, Row: 1}, {Time: 0.25, Row: 0}},
		Bank: dram.State{
			Charge:     []float64{0.9, 0.8, 0.7},
			LastT:      []float64{0.1, 0.15, 0.19},
			Violations: []dram.Violation{{Row: 2, Time: 0.11, Charge: 0.3}},
			Retired:    []int{2},
		},
		TraceRead: 5, HavePending: true,
		Pending:       trace.Record{Time: 0.21, Op: trace.Write, Row: 1},
		LastTraceTime: 0.19, BusyUntil: 0.1921,
		SchedState: []byte{1, 2, 3}, ScrubState: []byte{4, 5}, ScenarioState: []byte{6},
	}
}

func TestSimBlobGolden(t *testing.T) {
	blob, err := hex.DecodeString(goldenSimHex)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSim()
	got, err := DecodeSim(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("golden sim3 blob decoded to\n%+v\nwant\n%+v", got, want)
	}
	var buf bytes.Buffer
	if err := EncodeSim(&buf, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("sim3 encoding changed:\n got %x\nwant %x", buf.Bytes(), blob)
	}
}
