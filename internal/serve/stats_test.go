package serve

import (
	"bytes"
	"encoding/hex"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/sim"
)

// goldenStatsHex is a "sta1" blob of goldenStats() as the codec wrote it
// before sim.Stats grew its shared EncodeTo/DecodeStatsFrom pair. Results
// already on the wire or in a spool must keep decoding to the same Stats,
// and re-encoding must reproduce the blob byte for byte.
const goldenStatsHex = "040000000000000073746131030000000000000076726cfa7e6abc7493e83f01" +
	"0000000000000002000000000000000300000000000000040000000000000000" +
	"0000000000164006000000000000000700000000000000080000000000000009" +
	"000000000000000a000000000000000b000000000000000c000000000000000d" +
	"000000000000000e000000000000000f00000000000000fca9f1d24d62903f11" +
	"0000000000000012000000000000001300000000000000140000000000000015" +
	"0000000000000016000000000000001700000000000000180000000000000019" +
	"000000000000001a00000000000000"

// goldenStats sets every Stats field to a distinct value, so a swapped or
// dropped field changes the blob.
func goldenStats() sim.Stats {
	return sim.Stats{
		Scheduler: "vrl", Duration: 0.768,
		FullRefreshes: 1, PartialRefreshes: 2, BusyCycles: 3, Accesses: 4,
		ChargeRestored: 5.5, Violations: 6, CorrectedErrors: 7, UncorrectableErrors: 8,
		RowsUpgraded: 9, FaultsInjected: 10,
		Guard: core.GuardStats{Alarms: 11, Demotions: 12, Promotions: 13, Escalations: 14,
			BreakerTrips: 15, TimeDegraded: 0.016},
		Scrub: core.ScrubStats{RowsPatrolled: 17, Corrected: 18, Uncorrectable: 19, Reprofiles: 20,
			RowsHealed: 21, RowsRemapped: 22, HardFails: 23, BusyRetries: 24, SLOMisses: 25, SparesLeft: 26},
	}
}

func TestStatsBlobGolden(t *testing.T) {
	blob, err := hex.DecodeString(goldenStatsHex)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenStats()
	got, err := DecodeStats(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("golden sta1 blob decoded to\n%+v\nwant\n%+v", got, want)
	}
	if enc := EncodeStats(want); !bytes.Equal(enc, blob) {
		t.Fatalf("sta1 encoding changed:\n got %x\nwant %x", enc, blob)
	}
}
