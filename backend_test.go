package streamkm

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
)

// backendStream returns a deterministic 3-cluster mixture.
func backendStream(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := [][]float64{{0, 0}, {100, 0}, {0, 100}}
	out := make([][]float64, n)
	for i := range out {
		c := centers[rng.Intn(len(centers))]
		out[i] = []float64{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
	}
	return out
}

func specs() map[string]BackendSpec {
	return map[string]BackendSpec{
		"concurrent": {Type: BackendConcurrent, Algo: AlgoCC, K: 3, Shards: 2},
		"decayed":    {Type: BackendDecayed, Algo: AlgoCC, K: 3, HalfLife: 800},
		"windowed":   {Type: BackendWindowed, K: 3, WindowN: 5000},
	}
}

// TestOpenSnapshotRestoreAllBackends is the factory's core contract:
// every variant opens, ingests, snapshots, and restores with count,
// memory and clustering cost intact.
func TestOpenSnapshotRestoreAllBackends(t *testing.T) {
	pts := backendStream(2000, 42)
	for name, spec := range specs() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{BucketSize: 60, Seed: 5}
			b, err := Open(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.AddBatch(pts[:1500])
			b.AddWeighted(pts[1500], 2.5)
			b.AddBatch(pts[1501:])
			if b.Count() != 2000 {
				t.Fatalf("count %d, want 2000", b.Count())
			}
			preCost := Cost(pts, b.CentersContext(context.Background()))

			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(spec, bytes.NewReader(buf.Bytes()), Config{Seed: 6})
			if err != nil {
				t.Fatal(err)
			}
			if r.Count() != 2000 {
				t.Fatalf("restored count %d, want 2000", r.Count())
			}
			if r.PointsStored() != b.PointsStored() {
				t.Fatalf("restored memory %d, want %d", r.PointsStored(), b.PointsStored())
			}
			got := r.Spec()
			if got.Type != spec.Type || got.K != spec.K {
				t.Fatalf("restored spec %+v, want type %s k=%d", got, spec.Type, spec.K)
			}
			postCost := Cost(pts, r.CentersContext(context.Background()))
			if postCost > 2*preCost || preCost > 2*postCost {
				t.Fatalf("cost after restore %v vs %v", postCost, preCost)
			}
			// A restored backend keeps consuming the stream.
			r.AddBatch(pts[:10])
			if r.Count() != 2010 {
				t.Fatalf("count after resume %d, want 2010", r.Count())
			}
		})
	}
}

// TestQuotaFieldsRoundTrip: per-tenant quota fields ride the snapshot
// envelope for every backend variant — a hibernated tenant must wake up
// with the same limits it was created with — and PeekBackend reads them
// without building a backend (the registry boot scan's path).
func TestQuotaFieldsRoundTrip(t *testing.T) {
	pts := backendStream(300, 11)
	for name, spec := range specs() {
		t.Run(name, func(t *testing.T) {
			spec.PointsPerSec = 123.5
			spec.BytesPerSec = 1 << 20
			spec.MaxResidentBytes = 1 << 24
			cfg := Config{BucketSize: 60, Seed: 5}
			b, err := Open(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.AddBatch(pts)
			var buf bytes.Buffer
			if err := b.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := Restore(BackendSpec{}, bytes.NewReader(buf.Bytes()), cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Spec()
			if got.PointsPerSec != spec.PointsPerSec || got.BytesPerSec != spec.BytesPerSec ||
				got.MaxResidentBytes != spec.MaxResidentBytes {
				t.Fatalf("restored spec quotas %+v, want %+v", got, spec)
			}
			if r.Count() != 300 {
				t.Fatalf("restored count %d, want 300", r.Count())
			}
			sc := got.StreamConfig()
			if sc.PointsPerSec != spec.PointsPerSec || sc.BytesPerSec != spec.BytesPerSec ||
				sc.MaxResidentBytes != spec.MaxResidentBytes {
				t.Fatalf("StreamConfig quotas %+v, want %+v", sc, spec)
			}
		})
	}
	// Quota-free specs keep writing the legacy envelope shape: a bare
	// Concurrent and a quota-less factory Open must stay byte-compatible
	// (the golden-fixture suites pin that; here we just pin the spec
	// observing zero quotas after a round trip).
	b, err := Open(BackendSpec{Type: BackendConcurrent, Algo: AlgoCC, K: 3, Shards: 2}, Config{BucketSize: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b.AddBatch(pts)
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(BackendSpec{}, bytes.NewReader(buf.Bytes()), Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Spec(); got.PointsPerSec != 0 || got.BytesPerSec != 0 || got.MaxResidentBytes != 0 {
		t.Fatalf("quota-free round trip fabricated quotas: %+v", got)
	}
}

// TestRestoreSpecMismatch: a nonzero requested spec must match the
// snapshot — a tenant that declared "decayed" can never silently resume
// a concurrent (or differently tuned) file.
func TestRestoreSpecMismatch(t *testing.T) {
	cfg := Config{BucketSize: 60, Seed: 1}
	b, err := Open(BackendSpec{Type: BackendDecayed, Algo: AlgoCC, K: 3, HalfLife: 800}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.AddBatch(backendStream(500, 1))
	var buf bytes.Buffer
	if err := b.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	bad := []BackendSpec{
		{Type: BackendWindowed, WindowN: 100},
		{Type: BackendConcurrent},
		{Type: BackendDecayed, HalfLife: 999},
		{Type: BackendDecayed, HalfLife: 800, K: 7},
		{Type: BackendDecayed, HalfLife: 800, Algo: AlgoRCC},
	}
	for i, spec := range bad {
		if _, err := Restore(spec, bytes.NewReader(buf.Bytes()), cfg); err == nil {
			t.Errorf("mismatched spec %d (%+v) restored without error", i, spec)
		}
	}
	// The zero spec adopts whatever the file holds.
	if _, err := Restore(BackendSpec{}, bytes.NewReader(buf.Bytes()), cfg); err != nil {
		t.Errorf("zero spec rejected a valid snapshot: %v", err)
	}
}

// TestRestoreLegacyConcurrentSnapshot: files written by
// Concurrent.Snapshot (bare v2 sharded envelopes) restore through the
// spec factory unchanged — the acceptance criterion that no existing
// checkpoint is orphaned.
func TestRestoreLegacyConcurrentSnapshot(t *testing.T) {
	c := MustNewConcurrent(AlgoCC, 2, Config{K: 3, BucketSize: 60, Seed: 3})
	pts := backendStream(1200, 9)
	c.AddBatch(pts)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Restore(BackendSpec{Type: BackendConcurrent, Algo: AlgoCC, K: 3}, bytes.NewReader(buf.Bytes()), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if b.Count() != 1200 {
		t.Fatalf("count %d, want 1200", b.Count())
	}
	if got := b.Spec(); got.Type != BackendConcurrent || got.Shards != 2 {
		t.Fatalf("spec %+v, want concurrent x2 shards", got)
	}
}

func TestOpenValidation(t *testing.T) {
	bad := []BackendSpec{
		{Type: "bogus", K: 3},
		{Type: BackendDecayed, K: 3},                                   // missing half_life
		{Type: BackendWindowed, K: 3},                                  // missing window_n
		{Type: BackendWindowed, K: 3, WindowN: 2},                      // window < bucket
		{Type: BackendConcurrent, K: 0},                                // k < 1
		{Type: BackendDecayed, K: 3, HalfLife: -1},                     // negative knob
		{Type: BackendConcurrent, K: 3, Algo: "XX"},                    // unknown structure
		{Type: BackendConcurrent, K: 3, Dim: -4},                       // negative dim
		{Type: BackendDecayed, Algo: "Sequential", K: 3, HalfLife: 10}, // no coreset to decay
		{Type: BackendConcurrent, K: 3, HalfLife: 10},                  // stray knob
		{Type: BackendDecayed, K: 3, HalfLife: 10, WindowN: 50},        // stray knob
		{Type: BackendWindowed, K: 3, WindowN: 500, HalfLife: 1},       // stray knob
	}
	for i, spec := range bad {
		if _, err := Open(spec, Config{}); err == nil {
			t.Errorf("Open accepted invalid spec %d: %+v", i, spec)
		}
	}
	// The zero type defaults to concurrent.
	b, err := Open(BackendSpec{K: 3}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec().Type != BackendConcurrent {
		t.Errorf("default type %q, want concurrent", b.Spec().Type)
	}
}

// TestDecayedBackendForgetsUnderConcurrency drives the mutex-wrapped
// decayed backend from several goroutines (run with -race) and checks
// the semantic point of decay: after a concept shift, fresh clusters
// dominate queries.
func TestDecayedBackendForgetsUnderConcurrency(t *testing.T) {
	b, err := Open(BackendSpec{Type: BackendDecayed, Algo: AlgoCC, K: 2, HalfLife: 400}, Config{BucketSize: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	old := backendStream(2000, 7) // clusters near the origin
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := w * 500; off < (w+1)*500; off += 100 {
				b.AddBatch(old[off : off+100])
				b.CentersContext(context.Background())
				b.Count()
			}
		}(w)
	}
	wg.Wait()

	rng := rand.New(rand.NewSource(8))
	fresh := make([][]float64, 6000)
	for i := range fresh {
		base := 5000 * float64(1+i%2)
		fresh[i] = []float64{base + rng.NormFloat64(), base + rng.NormFloat64()}
	}
	b.AddBatch(fresh)
	for _, ctr := range b.CentersContext(context.Background()) {
		if ctr[0] < 2500 {
			t.Fatalf("center %v still dominated by decayed-away history", ctr)
		}
	}
}

// TestWindowedBackendConcurrency exercises the windowed backend's mutex
// under parallel ingest + queries (run with -race).
func TestWindowedBackendConcurrency(t *testing.T) {
	b, err := Open(BackendSpec{Type: BackendWindowed, K: 3, WindowN: 1000}, Config{BucketSize: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := backendStream(4000, 11)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for off := w * 1000; off < (w+1)*1000; off += 200 {
				b.AddBatch(pts[off : off+200])
				b.CentersContext(context.Background())
				var buf bytes.Buffer
				if err := b.Snapshot(&buf); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if b.Count() != 4000 {
		t.Fatalf("count %d, want 4000", b.Count())
	}
	if b.PointsStored() > 2000 {
		t.Fatalf("windowed backend stores %d points for a 1000 window", b.PointsStored())
	}
}
