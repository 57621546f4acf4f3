package fleet

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"vrldram/internal/scenario"
	"vrldram/internal/sim"
)

func testFleetSpec() Spec {
	return Spec{
		Devices:    10,
		Seed:       7,
		Scheduler:  "vrl",
		Duration:   0.05,
		Rows:       256,
		Cols:       4,
		ShardSize:  3,
		TempMeanC:  85,
		TempSwingC: 10,
		WeakFrac:   0.4,
		Scenarios: scenario.Mix{Items: []scenario.Weighted{
			{Ref: scenario.Ref{Name: "nominal"}, Weight: 2},
			{Ref: scenario.Ref{Name: "aging"}, Weight: 1},
		}},
		Guard: true,
		Scrub: true,
	}
}

func TestSpecValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"devices", func(s *Spec) { s.Devices = 0 }, "population"},
		{"scheduler", func(s *Spec) { s.Scheduler = "fifo" }, "scheduler"},
		{"duration", func(s *Spec) { s.Duration = -1 }, "duration"},
		{"rows", func(s *Spec) { s.Rows = -4 }, "rows"},
		{"shardsize", func(s *Spec) { s.ShardSize = -1 }, "shard size"},
		{"tempswing", func(s *Spec) { s.TempSwingC = -2 }, "swing"},
		{"weakfrac", func(s *Spec) { s.WeakFrac = 1.5 }, "weak"},
		{"backend", func(s *Spec) { s.Backend = 99 }, "backend"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testFleetSpec()
			c.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want mention of %q", err, c.want)
			}
		})
	}
	if err := testFleetSpec().Validate(); err != nil {
		t.Fatalf("base spec must validate: %v", err)
	}
}

// TestDeviceDerivationIsolatedStreams pins the load-bearing property of the
// population derivation: device environments are pure functions of
// (Spec, index), and changing one knob (the weak-device fraction) must not
// perturb the independent draws (profile seed, temperature).
func TestDeviceDerivationIsolatedStreams(t *testing.T) {
	spec := testFleetSpec()
	for i := 0; i < spec.Devices; i++ {
		a, b := spec.Device(i), spec.Device(i)
		if a != b {
			t.Fatalf("device %d not deterministic: %+v vs %+v", i, a, b)
		}
		if a.Seed <= 0 {
			t.Fatalf("device %d has non-positive profile seed %d", i, a.Seed)
		}
		lo, hi := spec.TempMeanC-spec.TempSwingC, spec.TempMeanC+spec.TempSwingC
		if a.TempC < lo || a.TempC > hi {
			t.Fatalf("device %d temperature %g outside [%g,%g]", i, a.TempC, lo, hi)
		}
		if a.Weak && a.WeakSeed <= 0 {
			t.Fatalf("weak device %d has non-positive fault seed", i)
		}
	}

	noWeak := spec
	noWeak.WeakFrac = 0
	for i := 0; i < spec.Devices; i++ {
		a, b := spec.Device(i), noWeak.Device(i)
		if a.Seed != b.Seed || a.TempC != b.TempC {
			t.Fatalf("device %d: WeakFrac change perturbed seed/temperature (%+v vs %+v)", i, a, b)
		}
		if b.Weak {
			t.Fatalf("device %d weak despite WeakFrac=0", i)
		}
	}

	// Distinct devices must not collapse onto one environment.
	seeds := map[int64]bool{}
	for i := 0; i < spec.Devices; i++ {
		seeds[spec.Device(i).Seed] = true
	}
	if len(seeds) != spec.Devices {
		t.Fatalf("only %d distinct profile seeds across %d devices", len(seeds), spec.Devices)
	}
}

// TestDeviceScenarioDrawIsolatedStream extends the stream-isolation property
// to the workload catalog: adding (or reweighting) a scenario mixture must
// not perturb any device's profile seed, temperature, or fault plan, and the
// draws themselves must be valid catalog refs with positive scenario seeds.
func TestDeviceScenarioDrawIsolatedStream(t *testing.T) {
	base := testFleetSpec()
	base.Devices = 200
	base.Scenarios = scenario.Mix{}
	mixed := base
	mixed.Scenarios = scenario.Mix{Items: []scenario.Weighted{
		{Ref: scenario.Ref{Name: "diurnal"}, Weight: 3},
		{Ref: scenario.Ref{Name: "kitchen-sink"}, Weight: 1},
	}}
	if err := mixed.Validate(); err != nil {
		t.Fatal(err)
	}

	picked := map[string]int{}
	for i := 0; i < base.Devices; i++ {
		a, b := base.Device(i), mixed.Device(i)
		if a.Seed != b.Seed || a.TempC != b.TempC || a.Weak != b.Weak || a.WeakSeed != b.WeakSeed {
			t.Fatalf("device %d: adding a scenario catalog perturbed the other draws (%+v vs %+v)", i, a, b)
		}
		if a.Scenario != (scenario.Ref{}) || a.ScenSeed != 0 {
			t.Fatalf("device %d drew a scenario from an empty catalog: %+v", i, a)
		}
		if b.Scenario.Name == "" || b.Scenario.Version == 0 {
			t.Fatalf("device %d drew no versioned scenario from the mixture: %+v", i, b)
		}
		if b.ScenSeed <= 0 {
			t.Fatalf("device %d has non-positive scenario seed %d", i, b.ScenSeed)
		}
		picked[b.Scenario.Name]++
	}
	if picked["diurnal"] == 0 || picked["kitchen-sink"] == 0 {
		t.Fatalf("mixture entries unused across %d devices: %v", base.Devices, picked)
	}
	if picked["diurnal"] <= picked["kitchen-sink"] {
		t.Fatalf("weight 3:1 not visible in the draws: %v", picked)
	}

	// Reweighting changes only the scenario stream.
	reweighted := mixed
	reweighted.Scenarios = scenario.Mix{Items: []scenario.Weighted{
		{Ref: scenario.Ref{Name: "diurnal"}, Weight: 1},
		{Ref: scenario.Ref{Name: "kitchen-sink"}, Weight: 3},
	}}
	for i := 0; i < base.Devices; i++ {
		a, b := mixed.Device(i), reweighted.Device(i)
		if a.Seed != b.Seed || a.TempC != b.TempC || a.Weak != b.Weak || a.ScenSeed != b.ScenSeed {
			t.Fatalf("device %d: reweighting perturbed non-pick draws", i)
		}
	}
}

// TestShardsPartitionExactly checks the shard plan covers every device index
// exactly once, in order, with a short tail shard.
func TestShardsPartitionExactly(t *testing.T) {
	spec := testFleetSpec() // 10 devices / shard size 3 -> 3+3+3+1
	shards := spec.Shards()
	if len(shards) != spec.NumShards() || len(shards) != 4 {
		t.Fatalf("got %d shards, NumShards=%d, want 4", len(shards), spec.NumShards())
	}
	next := 0
	for i, ss := range shards {
		if ss.Index != i {
			t.Fatalf("shard %d carries index %d", i, ss.Index)
		}
		if ss.Start != next {
			t.Fatalf("shard %d starts at %d, want %d", i, ss.Start, next)
		}
		if err := ss.Validate(); err != nil {
			t.Fatalf("shard %d invalid: %v", i, err)
		}
		next += ss.Count
	}
	if next != spec.Devices {
		t.Fatalf("shards cover %d devices, population has %d", next, spec.Devices)
	}
	if last := shards[len(shards)-1]; last.Count != 1 {
		t.Fatalf("tail shard holds %d devices, want 1", last.Count)
	}
}

func TestShardSpecCodecRoundTrip(t *testing.T) {
	for _, ss := range testFleetSpec().Shards() {
		blob := ss.Encode()
		got, err := DecodeShardSpec(blob)
		if err != nil {
			t.Fatalf("decode shard %d: %v", ss.Index, err)
		}
		want := ShardSpec{Spec: ss.Spec.WithDefaults(), Index: ss.Index, Start: ss.Start, Count: ss.Count}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d round trip:\n got %+v\nwant %+v", ss.Index, got, want)
		}
	}
	// A shard that lies about its device range must be refused.
	ss := testFleetSpec().Shards()[1]
	ss.Start++
	if _, err := DecodeShardSpec(ss.Encode()); err == nil {
		t.Fatal("shard with off-plan start must not decode")
	}
	if _, err := DecodeShardSpec(nil); err == nil {
		t.Fatal("empty blob must not decode")
	}
}

// goldenFastForwardShardHex is shard 1 of a 4-device spec with Backend set
// to sim.BackendFastForward, as encoded while the approximate "batch-lut"
// backend (value 3) still existed. Backend values are stored, so removing
// one must not renumber the others.
const goldenFastForwardShardHex = "04000000000000006673683304000000000000002a0000000000000003000000" +
	"0000000076726c9a9999999999a93f0001000000000000040000000000000002" +
	"0000000000000000000000004055400000000000000000000000000000000000" +
	"0000000000000000000000000000000000000000000000000004000000000000" +
	"00010000000000000002000000000000000200000000000000"

// TestShardSpecBackendCompat pins the stored backend values: a shard blob
// encoded with fast-forward before batch-lut was removed still decodes to
// fast-forward, a blob carrying the removed batch-lut value is refused with
// an error naming it (never re-run on an exact backend), and a value that
// never existed is refused too.
func TestShardSpecBackendCompat(t *testing.T) {
	blob, err := hex.DecodeString(goldenFastForwardShardHex)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeShardSpec(blob)
	if err != nil {
		t.Fatalf("stored fast-forward shard must decode: %v", err)
	}
	if ss.Spec.Backend != sim.BackendFastForward || ss.Index != 1 || ss.Count != 2 {
		t.Fatalf("stored fast-forward shard decoded to %+v", ss)
	}

	for _, c := range []struct {
		backend sim.Backend
		want    string
	}{{3, "batch-lut"}, {99, "unknown backend 99"}} {
		bad := ss
		bad.Spec.Backend = c.backend
		_, err := DecodeShardSpec(bad.Encode())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("shard with backend %d: DecodeShardSpec = %v, want an error naming %q", int(c.backend), err, c.want)
		}
	}
}

func TestShardResultCodecRoundTrip(t *testing.T) {
	ss := testFleetSpec().Shards()[0]
	r := fakeResult(ss)
	got, err := DecodeShardResult(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Encode()) != string(r.Encode()) {
		t.Fatal("shard result round trip not byte-identical")
	}
	// A result whose summary covers the wrong number of devices is refused.
	bad := fakeResult(ss)
	bad.Count++
	if _, err := DecodeShardResult(bad.Encode()); err == nil {
		t.Fatal("result with device-count mismatch must not decode")
	}
}
