package main

import (
	"errors"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer the percentile is an anecdote, not a measurement.
const minBeyond = 10

// tail is a latency tail: the highest percentile (capped at 99) that
// still has at least minBeyond samples beyond it.
type tail struct {
	Value   float64 `json:"value"`
	Pct     float64 `json:"pct"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

var errFewSamples = errors.New("fewer than 11 samples: no percentile has 10 beyond it")

// tailPercentile picks the nearest-rank percentile min(p99, n-11th) of xs.
// xs is not modified.
func tailPercentile(xs []float64) (tail, error) {
	n := len(xs)
	if n < minBeyond+1 {
		return tail{Samples: n}, errFewSamples
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(0.99*float64(n))) - 1
	if lim := n - 1 - minBeyond; i > lim {
		i = lim
	}
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), Samples: n, Beyond: n - 1 - i}, nil
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the two middle values for even n); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns Q1, Q2, Q3 by the same rule as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads printed here match the ones an external checker computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// errorRateBound is the one-sided 95% Clopper–Pearson upper bound on the
// share of operations that fail, given failed of attempted. It is never
// 0: a clean run of n operations still only shows the rate is below
// about 3/n, so the metric keeps a base and a later regression that
// starts failing requests raises it.
func errorRateBound(failed, attempted int) float64 {
	if attempted <= 0 {
		return 1
	}
	if failed >= attempted {
		return 1
	}
	if failed == 0 {
		return 1 - math.Pow(0.05, 1/float64(attempted))
	}
	lo, hi := float64(failed)/float64(attempted), 1.0
	for it := 0; it < 100; it++ {
		mid := (lo + hi) / 2
		if binomCDF(failed, attempted, mid) > 0.05 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// binomCDF is P(X <= x) for X ~ Binomial(n, p), summed in log space.
func binomCDF(x, n int, p float64) float64 {
	lp, lq := math.Log(p), math.Log1p(-p)
	ln, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for i := 0; i <= x; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(ln - li - lr + float64(i)*lp + float64(n-i)*lq)
	}
	return sum
}
