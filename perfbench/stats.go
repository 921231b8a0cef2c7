package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples a reported percentile must have above
// it: a p99 needs at least 1000 samples, a p90 at least 100, a p50 20.
const minBeyond = 10

// pct is one reported percentile with the sample count behind it.
type pct struct {
	P       float64 `json:"p"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples and
// how many samples lie beyond it. It fails when fewer than minBeyond samples
// lie beyond, so a run never reports a tail it did not observe.
func percentile(samples []float64, p float64) (pct, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return pct{}, fmt.Errorf("percentile p%g of %d samples: undefined", p*100, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	out := pct{P: p, Value: s[rank-1], Samples: n, Beyond: n - rank}
	if out.Beyond < minBeyond {
		return out, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d",
			p*100, n, out.Beyond, minBeyond)
	}
	return out, nil
}

// median of samples (mean of the middle two for an even count).
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
