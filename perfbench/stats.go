package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure read off fewer samples than this is noise, so the
// benchmark refuses to print it.
const minBeyond = 10

// errFewSamples reports a percentile that too few samples support.
var errFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples sorted ascending: the smallest sample with at least p% of the
// samples at or below it. It refuses with errFewSamples unless at least
// minBeyond samples lie beyond that rank, so p95 needs 200 samples and
// p50 needs 20.
func percentile(sorted []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(sorted)
	// Multiplying before dividing keeps p*n/100 exact for whole p and n,
	// so p95 of 200 samples is rank 190, not 191.
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples: %d lie beyond it, want %d: %w", p, n, beyond, minBeyond, errFewSamples)
	}
	return sorted[rank-1], nil
}

// dist is a timing distribution reduced to what the benchmark reports.
// N always travels with the percentiles, so a reader can tell how many
// samples stand behind each figure.
type dist struct {
	N        int
	P50, P95 float64
}

// summarize sorts a copy of samples and reads its median and p95.
func summarize(samples []float64) (dist, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	var err error
	if d.P50, err = percentile(s, 50); err != nil {
		return d, err
	}
	if d.P95, err = percentile(s, 95); err != nil {
		return d, err
	}
	return d, nil
}

// median is the plain sample median (the mean of the middle pair for an
// even count); it is for repeated measurements of one quantity, such as
// the set-up repetitions, where the count is small by design.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
