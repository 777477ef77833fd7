package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is a set of raw measurements, sorted on first use.
type sample struct {
	name, unit string
	vals       []float64
	sorted     bool
}

func (s *sample) add(v float64) { s.vals = append(s.vals, v); s.sorted = false }

func (s *sample) n() int { return len(s.vals) }

// rank returns the 1-based nearest rank of quantile q among n samples: the
// smallest r with r/n >= q.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile is the exact nearest-rank quantile. It refuses a quantile with
// fewer than ten samples beyond it, which would report one outlier as p99.
func (s *sample) quantile(q float64) (float64, error) {
	n := len(s.vals)
	if n == 0 || n-rank(q, n) < 10 {
		return 0, fmt.Errorf("%s: p%g needs 10 samples beyond it, have %d samples", s.name, q*100, n)
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return s.vals[rank(q, n)-1], nil
}

// tail is quantile for per-layer figures. Where fewer than ten samples lie
// beyond q it falls back to the highest rank that keeps ten beyond it (the
// effective quantile is returned, and printed beside the figure); a layer
// with no samples reads 0.
func (s *sample) tail(q float64) (v, effQ float64) {
	n := len(s.vals)
	if n == 0 {
		return 0, q
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	r := min(rank(q, n), max(n-10, 1))
	return s.vals[r-1], float64(r) / float64(n)
}

func (s *sample) sum() float64 {
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

func (s *sample) mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.vals))
}

// median of a small set of values (setup times), without the sample gate.
func median(vals []float64) float64 {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
