package streamkm

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestCacheMissesCountOnlyRecomputations sends a burst of concurrent
// queries at a stale cache, for every backend variant: exactly one of
// them recomputes and counts as the miss, every other one — whether it
// hit the fresh entry directly or waited on the single-flight and then
// reused its result — counts as a hit.
func TestCacheMissesCountOnlyRecomputations(t *testing.T) {
	const queries = 16
	pts := backendStream(3000, 21)
	for name, spec := range specs() {
		t.Run(name, func(t *testing.T) {
			b, err := Open(spec, Config{BucketSize: 60, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			b.AddBatch(pts[:1000])
			b.CentersContext(context.Background())
			b.AddBatch(pts[1000:]) // tripled: the cached entry is stale
			hits0, misses0 := b.CacheStats()

			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < queries; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					b.CentersContext(context.Background())
				}()
			}
			close(start)
			wg.Wait()

			hits, misses := b.CacheStats()
			hits, misses = hits-hits0, misses-misses0
			if hits+misses != queries || misses != 1 {
				t.Fatalf("%d concurrent stale queries counted hits=%d misses=%d, want %d hits and 1 miss",
					queries, hits, misses, queries-1)
			}
		})
	}
}

// TestWindowedCacheExpiresWithWindow pins the windowed cache's horizon: a
// long stream makes the cached count huge next to the window, and the
// count rule alone would keep serving centers computed from a window that
// has since slid past entirely.
func TestWindowedCacheExpiresWithWindow(t *testing.T) {
	b, err := Open(BackendSpec{Type: BackendWindowed, K: 2, WindowN: 1000, Shards: 2}, Config{BucketSize: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	near := func(n int, x float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{x + rng.NormFloat64(), rng.NormFloat64()}
		}
		return out
	}
	b.AddBatch(near(50000, 0))
	b.CentersContext(context.Background())
	b.AddBatch(near(5000, 1000)) // five whole windows: nothing near x=0 remains

	for _, ctr := range b.CentersContext(context.Background()) {
		if ctr[0] < 500 {
			t.Fatalf("center %v comes from an expired window", ctr)
		}
	}
	if _, misses := b.CacheStats(); misses != 2 {
		t.Fatalf("misses = %d, want 2: the second query must recompute", misses)
	}
}
