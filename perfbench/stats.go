package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p90 read off 12 samples is one sample, not a tail.
const minBeyond = 10

// median returns the middle value of xs (the mean of the middle two for an
// even count), or NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses (ok=false) unless at least minBeyond samples lie strictly above
// the chosen rank, so a tail figure always rests on a tail of samples.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if q <= 0 || q >= 1 || len(xs) == 0 {
		return math.NaN(), false
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if len(s)-1-rank < minBeyond {
		return math.NaN(), false
	}
	return s[rank], true
}

// medianOrZero is median with 0 for no samples: a layer the workload never
// calls reports zero time.
func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is an ordered-by-name set of reported figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("perfbench: metric %s is %v", name, v))
	}
	m[name] = metric{Value: v, Unit: unit}
}
