package streamkm

import (
	"fmt"
	"io"
	"math/rand"

	"streamkm/internal/core"
	"streamkm/internal/decay"
	"streamkm/internal/geom"
	"streamkm/internal/kmedian"
	"streamkm/internal/parallel"
	"streamkm/internal/persist"
	"streamkm/internal/quality"
)

// This file wires the library's extensions — the future-work directions
// from the paper's conclusion plus operational features — into the public
// API:
//
//   - snapshot/restore of live clusterer state (Save/Load);
//   - streaming k-median via coreset caching (NewKMedian);
//   - time-decayed weighting for concept drift (NewDecayed);
//   - parallel/distributed streams (NewSharded).

// Save serializes the clusterer's complete logical state to w in a
// versioned, checksummed binary format. Only single-stream clusterers
// created by New can be saved here; sharded clusterers write a sharded
// envelope (one nested clusterer per shard plus routing metadata) via
// Concurrent.Snapshot or ShardedClusterer.Snapshot instead. Randomness is
// not captured: a restored clusterer continues with the seed passed to
// Load.
func Save(w io.Writer, c Clusterer) error {
	wr, ok := c.(*wrapper)
	if !ok {
		return fmt.Errorf("streamkm: cannot snapshot %T (only built-in clusterers)", c)
	}
	env, err := persist.SnapshotClusterer(wr.inner)
	if err != nil {
		return err
	}
	return persist.Save(w, env)
}

// Load reconstructs a clusterer previously written by Save. cfg supplies
// the non-serialized pieces (Seed, Builder, query options); its structural
// fields (K, BucketSize, ...) are ignored in favor of the snapshot's.
// Snapshots written by Concurrent.Snapshot or ShardedClusterer.Snapshot
// carry a sharded envelope and are rejected here — restore those with
// NewConcurrentFromSnapshot or NewShardedFromSnapshot.
func Load(r io.Reader, cfg Config) (Clusterer, error) {
	// Validate only the fields Load actually uses; a zero Config is fine.
	cfg.K = 1
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	env, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	inner, err := persist.RestoreClusterer(env, cfg.Seed, b, cfg.queryOptions())
	if err != nil {
		return nil, err
	}
	return &wrapper{inner: inner}, nil
}

// NewKMedian creates a streaming k-median clusterer: the same cached
// coreset machinery with reductions and queries under the distance (not
// squared distance) objective — the extension proposed in the paper's
// conclusion. algo selects the summary structure (AlgoCT, AlgoCC or
// AlgoRCC; others are rejected).
func NewKMedian(algo Algo, cfg Config) (Clusterer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := kmedian.Builder{}
	var s core.Structure
	switch algo {
	case AlgoCT:
		s = core.NewCT(cfg.MergeDegree, cfg.BucketSize, b, rng)
	case AlgoCC:
		s = core.NewCC(cfg.MergeDegree, cfg.BucketSize, b, rng)
	case AlgoRCC:
		s = core.NewRCC(cfg.RCCOrder, cfg.BucketSize, b, rng)
	default:
		return nil, fmt.Errorf("streamkm: k-median supports CT, CC and RCC, not %q", algo)
	}
	opt := kmedian.Options{Runs: cfg.QueryRuns, RefineIters: cfg.QueryLloydIters}
	return &wrapper{inner: kmedian.NewDriver(s, cfg.K, cfg.BucketSize, rng, opt)}, nil
}

// KMedianCost returns the k-median cost (sum of weighted distances) of
// points against centers.
func KMedianCost(points []Point, centers []Point) float64 {
	wp := make([]geom.Weighted, len(points))
	for i, p := range points {
		wp[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	cs := make([]geom.Point, len(centers))
	for i, c := range centers {
		cs[i] = geom.Point(c)
	}
	return kmedian.Cost(wp, cs)
}

// NewDecayed creates a clusterer whose points fade with exponential time
// decay: a point's influence halves every halfLife arrivals (forward
// decay, addressing the paper's concept-drift open question). algo selects
// the summary structure (AlgoCT, AlgoCC or AlgoRCC).
func NewDecayed(algo Algo, cfg Config, halfLife float64) (Clusterer, error) {
	if halfLife <= 0 {
		return nil, fmt.Errorf("streamkm: halfLife must be > 0, got %v", halfLife)
	}
	switch algo {
	case AlgoCT, AlgoCC, AlgoRCC:
	default:
		return nil, fmt.Errorf("streamkm: decay supports CT, CC and RCC, not %q", algo)
	}
	c, err := New(algo, cfg)
	if err != nil {
		return nil, err
	}
	drv := c.(*wrapper).inner.(*core.Driver)
	lambda := ln2 / halfLife
	return &wrapper{inner: decay.New(drv, lambda)}, nil
}

// ln2 avoids importing math for one constant.
const ln2 = 0.6931471805599453

// QualityReport summarizes clustering quality beyond cost: silhouette
// coefficient (higher is better, in [-1, 1]), Davies–Bouldin index (lower
// is better), per-cluster masses, and empty-cluster count.
type QualityReport struct {
	K             int
	N             int
	SSQ           float64
	Silhouette    float64
	DaviesBouldin float64
	ClusterSizes  []float64
	EmptyClusters int
}

// Evaluate scores centers against points with standard clustering quality
// diagnostics. Silhouette is computed on a uniform sample for large inputs;
// seed makes the sampling reproducible.
func Evaluate(points []Point, centers []Point, seed int64) QualityReport {
	wp := make([]geom.Weighted, len(points))
	for i, p := range points {
		wp[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	cs := make([]geom.Point, len(centers))
	for i, c := range centers {
		cs[i] = geom.Point(c)
	}
	r := quality.Evaluate(rand.New(rand.NewSource(seed)), wp, cs)
	return QualityReport{
		K:             r.K,
		N:             r.N,
		SSQ:           r.SSQ,
		Silhouette:    r.Silhouette,
		DaviesBouldin: r.DaviesBouldin,
		ClusterSizes:  r.ClusterSizes,
		EmptyClusters: r.EmptyClusters,
	}
}

// NewSharded creates a clusterer over p parallel substreams, each with its
// own independent summary structure (algo: AlgoCT, AlgoCC or AlgoRCC);
// global queries merge the shard coresets (valid by the coreset union
// property). AddTo on the returned *ShardedClusterer feeds a specific
// shard and is safe for one goroutine per shard; Add routes round-robin.
func NewSharded(p int, algo Algo, cfg Config) (*ShardedClusterer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	switch algo {
	case AlgoCT, AlgoCC, AlgoRCC:
	default:
		return nil, fmt.Errorf("streamkm: sharding supports CT, CC and RCC, not %q", algo)
	}
	sh, err := newShardedInner(p, algo, cfg)
	if err != nil {
		return nil, err
	}
	return &ShardedClusterer{inner: sh}, nil
}

// newShardedInner builds the parallel.Sharded backing both NewSharded and
// NewConcurrent: p independent driver-based structures with per-shard
// seeds. cfg must already carry defaults and algo must be CT, CC or RCC.
func newShardedInner(p int, algo Algo, cfg Config) (*parallel.Sharded, error) {
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	return parallel.NewSharded(p, cfg.K, cfg.Seed, cfg.queryOptions(), driverFactory(algo, cfg, b))
}

// ShardedClusterer clusters p parallel substreams. It satisfies Clusterer
// (round-robin Add) and additionally exposes AddTo for explicit routing.
// Unlike the single-stream clusterers, it is safe for concurrent use: one
// goroutine per shard via AddTo, queries from any goroutine.
type ShardedClusterer struct {
	inner *parallel.Sharded
}

// Add routes one point round-robin across shards.
func (s *ShardedClusterer) Add(p Point) { s.inner.Add(geom.Point(p)) }

// AddWeighted routes one weighted point round-robin across shards.
func (s *ShardedClusterer) AddWeighted(p Point, w float64) {
	s.inner.AddWeighted(geom.Weighted{P: geom.Point(p), W: w})
}

// AddTo feeds one point to the given shard (0 <= shard < NumShards).
func (s *ShardedClusterer) AddTo(shard int, p Point) { s.inner.AddTo(shard, geom.Point(p)) }

// AddWeightedTo feeds one weighted point to the given shard.
func (s *ShardedClusterer) AddWeightedTo(shard int, p Point, w float64) {
	s.inner.AddWeightedTo(shard, geom.Weighted{P: geom.Point(p), W: w})
}

// NumShards returns the shard count.
func (s *ShardedClusterer) NumShards() int { return s.inner.NumShards() }

// Centers answers a global query over all shards.
func (s *ShardedClusterer) Centers() []Point {
	cs := s.inner.Centers()
	out := make([]Point, len(cs))
	for i, c := range cs {
		out[i] = []float64(c)
	}
	return out
}

// PointsStored sums shard memory in points.
func (s *ShardedClusterer) PointsStored() int { return s.inner.PointsStored() }

// Name identifies the algorithm in reports.
func (s *ShardedClusterer) Name() string { return s.inner.Name() }

// Count returns the number of points observed across all shards.
func (s *ShardedClusterer) Count() int64 { return s.inner.Count() }

// Snapshot serializes the sharded clusterer's complete logical state to w
// as one sharded envelope (all per-shard summaries plus the round-robin
// cursor). The shards are quiesced for the duration, so the snapshot is a
// consistent cut; safe to call while other goroutines ingest.
func (s *ShardedClusterer) Snapshot(w io.Writer) error {
	env, err := persist.SnapshotSharded(s.inner)
	if err != nil {
		return err
	}
	return persist.Save(w, env)
}

// NewShardedFromSnapshot reconstructs a ShardedClusterer previously
// written by Snapshot (or by Concurrent.Snapshot — the cached-centers
// metadata is simply unused). cfg supplies the non-serialized pieces as
// for Load.
func NewShardedFromSnapshot(r io.Reader, cfg Config) (*ShardedClusterer, error) {
	cfg.K = 1
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	env, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	inner, err := persist.RestoreSharded(env, cfg.Seed, b, cfg.queryOptions())
	if err != nil {
		return nil, err
	}
	return &ShardedClusterer{inner: inner}, nil
}
