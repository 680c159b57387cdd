package main

import (
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

func TestCompareMetric(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "ingest_pts_per_s", Better: "higher", Bound: 0.1}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		def  metricDef
		head []float64
		want string
	}{
		{"every pair faster", lower, scale(base, 0.8), "improved"},
		{"same runs", lower, base, "unchanged"},
		{"slower beyond the bound", lower, scale(base, 1.2), "regressed"},
		{"slower within the bound", lower, scale(base, 1.05), "unchanged"},
		{"higher is better", higher, scale(base, 1.2), "improved"},
		{"noisy head", lower, []float64{5, 15, 8, 14, 6, 16, 7, 13, 9, 12}, "unresolved"},
	} {
		if got := compareMetric(tc.def, base, tc.head); got.Decision != tc.want {
			t.Errorf("%s: decision %q (wins %d/%d, base %v, head %v), want %q",
				tc.name, got.Decision, got.Wins, got.Pairs, got.Base, got.Head, tc.want)
		}
	}
	// Nine wins in ten pairs is enough; eight is not.
	head := scale(base, 0.8)
	head[0] = 11
	if got := compareMetric(lower, base, head).Decision; got != "improved" {
		t.Errorf("9/10 wins: %q, want improved", got)
	}
	head[1] = 11
	if got := compareMetric(lower, base, head).Decision; got == "improved" {
		t.Error("8/10 wins must not claim a gain")
	}
}

// TestCountsRepeatExactly runs small ingest16 and drift passes twice
// against the real daemon: one connection per tenant makes the
// clustering output, and so every cost ratio and the hit/miss split,
// repeat exactly.
func TestCountsRepeatExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the daemon")
	}
	bin := filepath.Join(t.TempDir(), "streamkmd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/streamkmd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemon: %v\n%s", err, out)
	}
	small := map[string]func(w workload) workload{
		"ingest16": func(w workload) workload { w.Tenants, w.Distinct, w.BatchesPerSec = 4, 1000, 8; return w },
		"drift": func(w workload) workload {
			w.BatchesPerSec, w.CostSamples = 24, 2
			return w
		},
	}
	for _, name := range []string{"ingest16", "drift"} {
		in := makeInputs(small[name](workloads[name]), 5, 1)
		in.referenceCosts("")
		var first *measurement
		for run := 0; run < 2; run++ {
			m, err := measure(bin, in, nil, 1, 0, 1)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			if len(m.errs) > 0 {
				t.Fatalf("%s run %d: checks failed: %v", name, run, m.errs)
			}
			if first == nil {
				first = m
				continue
			}
			if !reflect.DeepEqual(m.costs, first.costs) {
				t.Errorf("%s: cost ratios %v then %v", name, first.costs, m.costs)
			}
			if m.split != first.split {
				t.Errorf("%s: hit/miss split %+v then %+v", name, first.split, m.split)
			}
		}
		if name == "drift" && first.split.Misses == 0 {
			t.Error("drift: no misses; the test exercises nothing")
		}
	}
}
