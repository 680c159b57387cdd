package registry

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source for quota tests: token
// refill and thrash windows become deterministic.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// admit runs one quota-gated ingest of n points / bodyBytes payload the
// way the HTTP layer does: AdmitIngest before applying, ChargeIngest
// after.
func admit(t *testing.T, r *Registry, id string, n int, bodyBytes int64) error {
	t.Helper()
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i), 0}
	}
	return r.With(id, true, func(s *Stream, b Backend) error {
		if err := r.AdmitIngest(s, b, bodyBytes); err != nil {
			return err
		}
		b.AddBatch(pts)
		r.ChargeIngest(s, int64(n))
		return nil
	})
}

func wantThrottled(t *testing.T, err error) *ThrottleError {
	t.Helper()
	if err == nil {
		t.Fatal("expected a throttle, got nil")
	}
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("errors.Is(%v, ErrThrottled) = false", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) {
		t.Fatalf("error %v is not a *ThrottleError", err)
	}
	if te.RetryAfter < 100*time.Millisecond {
		t.Fatalf("RetryAfter %v below the 100ms floor", te.RetryAfter)
	}
	return te
}

func TestPointsQuotaThrottles(t *testing.T) {
	clk := newFakeClock()
	r := mustNew(t, Config{
		Default: StreamConfig{Algo: "CC", K: 3, PointsPerSec: 10},
		now:     clk.now,
	})
	// The bucket starts at one burst (= 1s of rate): a 10-point batch is
	// admitted, drains it to zero, and the next batch is refused.
	if err := admit(t, r, "a", 10, 100); err != nil {
		t.Fatalf("first batch within burst: %v", err)
	}
	te := wantThrottled(t, admit(t, r, "a", 10, 100))
	if te.ID != "a" {
		t.Fatalf("throttle names stream %q, want a", te.ID)
	}
	// Half a second refills 5 tokens — above the out-of-debt threshold,
	// so the next batch is admitted (points are charged post-hoc).
	clk.advance(500 * time.Millisecond)
	if err := admit(t, r, "a", 5, 100); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if got := r.Stats().Registry.Throttled; got != 1 {
		t.Fatalf("Throttled = %d, want 1", got)
	}
}

func TestPointsQuotaDebtClamped(t *testing.T) {
	clk := newFakeClock()
	r := mustNew(t, Config{
		Default: StreamConfig{Algo: "CC", K: 3, PointsPerSec: 10},
		now:     clk.now,
	})
	// A single oversized batch is admitted (count unknown pre-parse) and
	// drives the bucket into debt — but the debt clamps at one burst, so
	// ~two seconds later the stream serves again instead of being locked
	// out for the 100s the raw arithmetic would imply.
	if err := admit(t, r, "a", 1000, 100); err != nil {
		t.Fatalf("oversized batch: %v", err)
	}
	wantThrottled(t, admit(t, r, "a", 1, 100))
	clk.advance(2100 * time.Millisecond)
	if err := admit(t, r, "a", 1, 100); err != nil {
		t.Fatalf("after debt drained: %v", err)
	}
}

func TestBytesQuotaThrottles(t *testing.T) {
	clk := newFakeClock()
	r := mustNew(t, Config{
		Default: StreamConfig{Algo: "CC", K: 3, BytesPerSec: 1000},
		now:     clk.now,
	})
	if err := admit(t, r, "a", 1, 800); err != nil {
		t.Fatalf("first 800B body: %v", err)
	}
	// 200 tokens left; an 800B body is short 600 → Retry-After ≈ 600ms.
	te := wantThrottled(t, admit(t, r, "a", 1, 800))
	if te.RetryAfter < 500*time.Millisecond || te.RetryAfter > time.Second {
		t.Fatalf("RetryAfter = %v, want ≈600ms", te.RetryAfter)
	}
	clk.advance(time.Second)
	if err := admit(t, r, "a", 1, 800); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestMaxResidentBytesThrottles(t *testing.T) {
	clk := newFakeClock()
	r := mustNew(t, Config{
		// dim 2 → 16 estimated bytes per stored point; the cap lands at
		// exactly 10 points.
		Default: StreamConfig{Algo: "CC", K: 3, Dim: 2, MaxResidentBytes: 160},
		now:     clk.now,
	})
	if err := admit(t, r, "a", 10, 100); err != nil {
		t.Fatalf("batch under the cap: %v", err)
	}
	te := wantThrottled(t, admit(t, r, "a", 1, 100))
	if te.RetryAfter != time.Second {
		t.Fatalf("footprint RetryAfter = %v, want the fixed 1s pacing hint", te.RetryAfter)
	}
	// Not a rate limit: time alone never re-admits; the footprint must
	// shrink (compaction, window slide) first.
	clk.advance(time.Minute)
	wantThrottled(t, admit(t, r, "a", 1, 100))
}

func TestQuotaNeighborIsolation(t *testing.T) {
	clk := newFakeClock()
	r := mustNew(t, Config{
		Default: StreamConfig{Algo: "CC", K: 3, PointsPerSec: 10},
		now:     clk.now,
	})
	if err := admit(t, r, "noisy", 10, 100); err != nil {
		t.Fatal(err)
	}
	wantThrottled(t, admit(t, r, "noisy", 10, 100))
	// The neighbor's bucket is untouched by the noisy tenant's refusals.
	if err := admit(t, r, "quiet", 10, 100); err != nil {
		t.Fatalf("neighbor throttled by a noisy tenant: %v", err)
	}
}

func TestThrashSheddingAndRecovery(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	r := mustNew(t, Config{
		DataDir:        dir,
		MaxResident:    1,
		ThrashRestores: 3,
		ThrashWindow:   time.Minute,
		now:            clk.now,
	})
	// Two streams under MaxResident 1: every alternating access evicts
	// the other and restores from disk — textbook thrash.
	ingest(t, r, "a", 1) // create a
	// Without a tick the two creations share one timestamp, and the LRU
	// tie could hibernate b instead of a, shifting every later restore.
	clk.advance(time.Second)
	ingest(t, r, "b", 1) // create b, hibernate a
	shedAt := -1
	for i := 0; i < 4; i++ {
		clk.advance(time.Second)
		if err := r.With("a", false, func(*Stream, Backend) error { return nil }); err != nil {
			te := wantThrottled(t, err)
			if te.Reason != "restore-thrash" {
				t.Fatalf("Reason = %q, want restore-thrash", te.Reason)
			}
			shedAt = i
			break
		}
		clk.advance(time.Second)
		if err := r.With("b", false, func(*Stream, Backend) error { return nil }); err != nil {
			t.Fatalf("access b (round %d): %v", i, err)
		}
	}
	// a restores on rounds 0,1,2 (the create does not count); the round-3
	// access would be its 4th restore inside the window and is shed.
	if shedAt != 3 {
		t.Fatalf("shed at round %d, want 3", shedAt)
	}
	if got := r.Stats().Registry.Shed; got != 1 {
		t.Fatalf("Shed = %d, want 1", got)
	}
	// Once the counted restores age out of the window the stream serves
	// again, and the restore succeeds with all state intact.
	clk.advance(2 * time.Minute)
	if n := streamCount(t, r, "a"); n != 1 {
		t.Fatalf("count after recovery = %d, want 1", n)
	}
}

func TestQuotaChurnRace(t *testing.T) {
	// Real clock: hammer one quota-limited stream plus an unlimited
	// neighbor from many goroutines while the registry hibernates and
	// restores under a tight residency cap. Run with -race; the test
	// asserts only absence of races, deadlocks and non-throttle errors.
	r := mustNew(t, Config{
		DataDir:     t.TempDir(),
		MaxResident: 1,
		Default:     StreamConfig{Algo: "CC", K: 3, PointsPerSec: 500, BytesPerSec: 1 << 20},
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		id := "hot"
		if g%2 == 1 {
			id = "cold"
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				err := r.With(id, true, func(s *Stream, b Backend) error {
					if err := r.AdmitIngest(s, b, 64); err != nil {
						return err
					}
					b.AddBatch([][]float64{{1, 2}})
					r.ChargeIngest(s, 1)
					return nil
				})
				if err != nil && !errors.Is(err, ErrThrottled) {
					t.Errorf("ingest %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}
