package streamkm

import (
	"context"
	"sync"
	"sync/atomic"

	"streamkm/internal/geom"
)

// centersCache is the cached-centers query fast path every serving
// backend shares. The centers computed by one query are reused until the
// stream has grown by more than a factor alpha since they were computed
// — the same cost-staleness idea OnlineCC (Algorithm 7) uses to answer
// most queries in O(1). A stale entry triggers exactly one recomputation
// (single-flight); concurrent queries keep being served the previous
// entry meanwhile, so query latency stays flat under heavy read traffic.
// A backend supplies only its stream count and its compute function.
type centersCache struct {
	alpha float64
	// horizon, when positive, is the sliding-window length: at most that
	// many of the newest points make up the clustered state, so growth is
	// measured against min(cached count, horizon) rather than the count.
	horizon int64
	count   func() int64
	compute func(ctx context.Context) []Point

	entry     atomic.Pointer[centersSnapshot]
	refreshMu sync.Mutex // single-flight guard for recomputation

	hits, misses atomic.Int64
}

// centersSnapshot is one immutable cache entry: the centers computed by a
// query and the stream count at the moment the computation started.
type centersSnapshot struct {
	centers []Point
	count   int64
}

func newCentersCache(alpha float64, horizon int64, count func() int64, compute func(context.Context) []Point) *centersCache {
	return &centersCache{alpha: alpha, horizon: horizon, count: count, compute: compute}
}

// CentersContext answers a query: from the cached entry while it is
// fresh, otherwise by recomputing. Only the caller that recomputes
// counts as a miss; callers that queue behind it re-check on wake and
// reuse its result as hits. The returned slices are copies owned by the
// caller.
func (c *centersCache) CentersContext(ctx context.Context) [][]float64 {
	n := c.count()
	if e := c.entry.Load(); c.fresh(n, e) {
		c.hits.Add(1)
		return clonePoints(e.centers)
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if e := c.entry.Load(); c.fresh(n, e) {
		c.hits.Add(1)
		return clonePoints(e.centers)
	}
	c.misses.Add(1)
	return clonePoints(c.refreshLocked(ctx))
}

// RefreshContext recomputes the centers unconditionally, replaces the
// entry, and returns them.
func (c *centersCache) RefreshContext(ctx context.Context) [][]float64 {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	return clonePoints(c.refreshLocked(ctx))
}

// CacheStats reports how many queries were answered from the cached
// entry (hits) versus recomputed (misses).
func (c *centersCache) CacheStats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// refreshLocked computes and installs a new entry. Caller holds
// refreshMu. The count is read before the computation so points racing
// in during it conservatively age the new entry rather than extending
// its life.
func (c *centersCache) refreshLocked(ctx context.Context) []Point {
	count := c.count()
	centers := c.compute(ctx)
	c.entry.Store(&centersSnapshot{centers: centers, count: count})
	return centers
}

// fresh reports whether entry e still answers a query arriving at count
// now: the arrivals since it was computed are at most (alpha-1) times
// the points it summarized — its count, capped by the horizon. An entry
// computed on an empty stream is only fresh while the stream is still
// empty.
func (c *centersCache) fresh(now int64, e *centersSnapshot) bool {
	switch {
	case e == nil:
		return false
	case e.count == 0:
		return now == 0
	case c.horizon > 0 && c.horizon < e.count:
		return float64(now-e.count) <= (c.alpha-1)*float64(c.horizon)
	}
	return float64(now) <= c.alpha*float64(e.count)
}

// locked runs fn with the current entry (nil when none) under the
// single-flight lock, so no recomputation can replace the entry while fn
// runs.
func (c *centersCache) locked(fn func(e *centersSnapshot) error) error {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	return fn(c.entry.Load())
}

// clonePoints deep-copies centers so callers can never corrupt the shared
// cache entry.
func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = append([]float64(nil), p...)
	}
	return out
}

// pointsOf converts internal centers to Points without copying; the
// cache clones them on the way out.
func pointsOf(cs []geom.Point) []Point {
	out := make([]Point, len(cs))
	for i, p := range cs {
		out[i] = []float64(p)
	}
	return out
}
