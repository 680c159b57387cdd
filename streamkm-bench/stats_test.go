package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the function must sort
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		value  float64
		pct    float64
		beyond int
	}{
		{n: 5000, value: 4950, pct: 99, beyond: 50},    // a true p99
		{n: 1000, value: 990, pct: 99, beyond: 10},     // p99 has exactly 10 beyond
		{n: 800, value: 790, pct: 98.75, beyond: 10},   // p99 would leave 8: step down
		{n: 11, value: 1, pct: 100.0 / 11, beyond: 10}, // the smallest sample with an answer
	} {
		got, err := tailPercentile(seq(tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if got.Value != tc.value || math.Abs(got.Pct-tc.pct) > 1e-9 || got.Beyond != tc.beyond || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want value %v pct %v beyond %d", tc.n, got, tc.value, tc.pct, tc.beyond)
		}
	}
	if _, err := tailPercentile(seq(10)); !errors.Is(err, errFewSamples) {
		t.Errorf("n=10: err = %v, want errFewSamples", err)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, [3]float64{2.375, 4.0, 8.375}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestErrorRateBound(t *testing.T) {
	// No failures: the exact one-sided bound, close to the rule of three.
	if got, want := errorRateBound(0, 1000), 1-math.Pow(0.05, 1.0/1000); math.Abs(got-want) > 1e-15 {
		t.Errorf("0/1000: got %v, want %v", got, want)
	}
	if got := errorRateBound(0, 1000); got <= 0 || math.Abs(got-3.0/1000) > 1e-4 {
		t.Errorf("0/1000 = %v, want about 3/1000 and never 0", got)
	}
	// With failures the bound solves P(X <= failed) = 0.05 and grows.
	prev := 0.0
	for f := 0; f <= 5; f++ {
		b := errorRateBound(f, 200)
		if b <= prev || b <= float64(f)/200 {
			t.Errorf("%d/200: bound %v not above %v and the observed rate", f, b, prev)
		}
		if f > 0 {
			if p := binomCDF(f, 200, b); math.Abs(p-0.05) > 1e-9 {
				t.Errorf("%d/200: P(X<=%d) at the bound = %v, want 0.05", f, f, p)
			}
		}
		prev = b
	}
	if errorRateBound(3, 3) != 1 || errorRateBound(0, 0) != 1 {
		t.Error("all failed or nothing attempted must bound at 1")
	}
}

// TestCheckCostsFailsMostlyBadAnswers: the check runs on the uncapped
// ratios, so answers that mostly miss a cluster fail it however the
// reported mean is capped.
func TestCheckCostsFailsMostlyBadAnswers(t *testing.T) {
	rep := func(x float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = x
		}
		return out
	}
	for _, tc := range []struct {
		name string
		rs   []float64
		ok   bool
	}{
		{"a third missed", append(rep(1.8, 40), rep(11, 24)...), true},
		{"one ratio below the reference", append(rep(1.8, 7), 0.4), true},
		{"most missed", append(rep(1.1, 13), rep(10, 51)...), false},
		{"no cluster missed but all poor", rep(3, 64), false},
		{"better than the reference everywhere", rep(0.5, 64), false},
		{"nothing scored", nil, false},
		{"a NaN ratio", append(rep(1.8, 7), math.NaN()), false},
	} {
		errs := checkCosts(tc.rs, 0.6)
		if ok := len(errs) == 0; ok != tc.ok {
			t.Errorf("%s: passed=%v (%v), want %v", tc.name, ok, errs, tc.ok)
		}
	}
}
