package serve

import (
	"vrldram/internal/core"
	"vrldram/internal/sim"
)

// EncodeStats flattens a sim.Stats into a tagged binary blob (the ResultMsg
// payload for JobSim).
func EncodeStats(s sim.Stats) []byte {
	var e core.StateEncoder
	e.Tag("sta1")
	s.EncodeTo(&e)
	return e.Data()
}

// DecodeStats reverses EncodeStats.
func DecodeStats(p []byte) (sim.Stats, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("sta1")
	s := sim.DecodeStatsFrom(d)
	return s, finish(d)
}
