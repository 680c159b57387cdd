package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"streamkm"
	"streamkm/internal/datagen"
	"streamkm/internal/geom"
	"streamkm/internal/wire"
)

// workload is one fixed traffic mix. Every field is recorded in the run
// record; the daemon sees only the generated points.
type workload struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	Dataset string `json:"dataset"`
	Tenants int    `json:"tenants"`
	// Passes is how many times a run sends the whole workload, each time
	// to a fresh daemon; the end-to-end figures pool the passes.
	Passes   int     `json:"passes"`
	Clients  int     `json:"clients"`
	K        int     `json:"k"`
	Shards   int     `json:"shards,omitempty"` // 0: the daemon default, GOMAXPROCS
	HalfLife float64 `json:"half_life,omitempty"`
	Batch    int     `json:"batch"`

	// Distinct points generated per tenant; the timed ingest cycles
	// through them (ingest16).
	Distinct int `json:"distinct"`
	// BatchesPerSec sizes the fixed timed-phase work: each tenant gets
	// BatchesPerSec*seconds batches, about --seconds of work on a 2-vCPU
	// box. Fixing the work instead of the wall time makes the clustering
	// output, and so cost_ratio and the hit/miss counts, repeat exactly.
	BatchesPerSec float64 `json:"batches_per_sec,omitempty"`
	// QueryEvery is how many of a tenant's batches go between two of its
	// centers queries in the timed phase (drift).
	QueryEvery int `json:"query_every,omitempty"`
	// CostSamples is how many of those queries per tenant are scored for
	// cost_ratio, evenly spaced.
	CostSamples int `json:"cost_samples,omitempty"`
	// MaxMissShare is the largest share of scored sets whose cost ratio
	// may exceed costCap: a query whose k-means++ seeding leaves a cluster
	// without a center scores about 10 on the drifting stream, and how
	// often that happens is part of the program's behaviour, not a fault.
	MaxMissShare float64 `json:"max_miss_share"`

	// Warmup batches per tenant are sent during set-up, before the timed
	// phase, together with one query per tenant that warms its cache.
	Warmup int `json:"warmup_batches,omitempty"`
	// Refreshes is the number of forced refreshes per tenant after each
	// round of the timed phase. On drift the first of them can also redo
	// the lane merge and cost 20 times the others; with 2, half the
	// samples did, and the median fell between the two.
	Refreshes int `json:"refreshes_per_round"`
}

// The query ladder shared by every workload: rates grow geometrically
// from ladderBase by ladderStep; the highest rung whose tail latency,
// timed from each request's due time, stays under ladderLimitMs is
// found by bisection in searches spread over the rounds of the timed
// phase, and query_max_qps is the median of the searches' results.
const (
	ladderBase    = 400.0
	ladderStep    = 1.06
	ladderRungs   = 60 // up to 12448/s
	ladderLimitMs = 100.0
	ladderRung    = 700 // ms per rung
	ladderProbes  = 6   // bisection steps per search
)

const (
	// The timed phase runs in rounds, each followed by forced refreshes
	// and a ladder search, so every phase's samples spread over the whole
	// run: on a shared host the speed swings by up to 2x over a few
	// seconds, and a phase that ran in one stretch of 5 s caught one or
	// two such swings in its tail.
	rounds = 5
	// ingest16 reads readsPerRound times per tenant after each write
	// round. 16 tenants make 4000 queries, of which the 80 first of a
	// round recompute: the tail percentile (p99, 40 samples beyond it)
	// falls among them.
	readsPerRound = 50
	refreshRate   = 25.0 // forced refreshes per second
	// setup_s is the median of this many set-ups, each on a fresh daemon.
	setupsPerRun = 9

	// cost_ratio: a scored set whose ratio exceeds costCap missed a
	// cluster. The median of the sets within the cap must lie in
	// [costMin, costGoodMedian]; the share above the cap is bounded per
	// workload by MaxMissShare.
	costCap        = 4.0
	costMin        = 0.8
	costGoodMedian = 2.25
)

var workloads = map[string]workload{
	// Write-heavy: 95% of daemon CPU sits in coreset reduction and the
	// geom kernels; the centers cache does nothing during the timed phase.
	"ingest16": {
		Name: "ingest16", Backend: "concurrent", Dataset: "covtype",
		Tenants: 16, Passes: 1, Clients: 2, K: 10, Batch: 250,
		Distinct: 4000, BatchesPerSec: 10, MaxMissShare: 0.25,
		Warmup: 2, Refreshes: 1,
	},
	// Writes beside reads on a drifting stream: the count-based freshness
	// rule, the lane merge and query-time k-means sit on the query path.
	// Three passes: the costliest recomputations come at the same stream
	// positions for all four tenants, so one pass has them at only three
	// moments, and its query tail followed the host's speed at those.
	"drift": {
		Name: "drift", Backend: "decayed", Dataset: "drift",
		Tenants: 4, Passes: 3, Clients: 2, K: 20, Shards: 2, HalfLife: 5000, Batch: 250,
		BatchesPerSec: 13, QueryEvery: 2, CostSamples: 16, MaxMissShare: 0.6,
		Warmup: 8, Refreshes: 4,
	},
}

// spec is the PUT /streams/{id} body.
func (w workload) spec() []byte {
	s := map[string]any{"backend": w.Backend, "algo": "CC", "k": w.K}
	if w.Shards > 0 {
		s["shards"] = w.Shards
	}
	if w.HalfLife > 0 {
		s["half_life"] = w.HalfLife
	}
	b, _ := json.Marshal(s) // a map of strings and numbers always encodes
	return b
}

// backendSpec is the same spec for in-process use.
func (w workload) backendSpec() streamkm.BackendSpec {
	return streamkm.BackendSpec{
		Type: streamkm.BackendType(w.Backend), Algo: streamkm.AlgoCC,
		K: w.K, Shards: w.Shards, HalfLife: w.HalfLife,
	}
}

func (w workload) dim() int {
	if w.Dataset == "drift" {
		return 68
	}
	return 54
}

func tenantID(t int) string { return fmt.Sprintf("t%02d", t) }

// tenantInput is one tenant's generated stream: the points as the
// daemon will see them (float32-quantized by the binary wire) and the
// encoded request bodies.
type tenantInput struct {
	points  [][]float64 // distinct points, quantized
	preload [][]byte    // set-up batches
	batches [][]byte    // timed-phase batches, in order
	// batchStart[i] is the index into points of batch i's first point.
	batchStart []int
	// queryAfter[i] is true when a centers query follows batch i (drift).
	queryAfter []bool
	// costQuery lists the query sequence numbers scored for cost_ratio,
	// with the point window each is scored against.
	costQuery []costSample
	// ref holds the offline reference cost for each scoring set: the
	// whole point set (ingest16) or each costQuery window (drift).
	refCost []float64
}

type costSample struct {
	Query    int // 0-based sequence number among the tenant's plain queries
	From, To int // window of points scored, [From, To)
}

// inputs is everything a run sends, made from the seed alone.
type inputs struct {
	w       workload
	seed    int64
	seconds int
	tenants []tenantInput
}

func quantize(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		q := make([]float64, len(p))
		for j, v := range p {
			q[j] = wire.Quantize(v)
		}
		out[i] = q
	}
	return out
}

func encode(pts [][]float64) []byte {
	b, err := wire.EncodeBatch(pts, nil)
	if err != nil {
		panic(fmt.Sprintf("encode generated batch: %v", err)) // generated points are finite by construction
	}
	return b
}

// Each tenant owns a fixed synthetic data set, as it would own a data
// file: its cluster geometry depends only on the tenant's index. The seed
// picks which points a run sends and in what order. Geometry decides how
// hard a tenant is to cluster, so tying it to the seed would make
// cost_ratio and the ingest cost wander from seed to seed.

// covtypeSample draws n points in random order from tenant t's
// 2n-point synthetic Covtype set.
func covtypeSample(t int, seed int64, n int) [][]float64 {
	pool := datagen.Covtype(2*n, int64(1000+t)).Points
	perm := rand.New(rand.NewSource(seed*1000 + int64(t))).Perm(len(pool))
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return quantize(out)
}

// driftSegment returns n consecutive points of tenant t's drifting RBF
// stream (datagen.Drift's recipe: 20 centers, d=68, 100 points per
// center per step), starting at one of 64 seed-chosen offsets.
func driftSegment(t int, seed int64, n int) [][]float64 {
	gen := datagen.NewRBFDrift(rand.New(rand.NewSource(int64(1000+t))), 20, 68, 1000, 10, 40, 2.0, 100)
	for range int(uint64(seed)%64) * 2000 {
		gen.Next()
	}
	return quantize(gen.Take(n))
}

// timedBatches is the fixed per-tenant batch count of the timed phase.
func (w workload) timedBatches(seconds int) int {
	return max(1, int(math.Round(w.BatchesPerSec*float64(seconds))))
}

func makeInputs(w workload, seed int64, seconds int) *inputs {
	in := &inputs{w: w, seed: seed, seconds: seconds, tenants: make([]tenantInput, w.Tenants)}
	for t := range in.tenants {
		ti := &in.tenants[t]
		switch w.Name {
		case "ingest16":
			ti.points = covtypeSample(t, seed, w.Distinct)
			// The stream cycles through the distinct batches; each body is
			// encoded once and shared. Set-up sends the first Warmup.
			bodies := make([][]byte, w.Distinct/w.Batch)
			for i := range bodies {
				bodies[i] = encode(ti.points[i*w.Batch : (i+1)*w.Batch])
			}
			for i := 0; i < w.Warmup+w.timedBatches(seconds); i++ {
				j := i % len(bodies)
				if i < w.Warmup {
					ti.preload = append(ti.preload, bodies[j])
					continue
				}
				ti.batches = append(ti.batches, bodies[j])
				ti.batchStart = append(ti.batchStart, j*w.Batch)
			}
		case "drift":
			nb := w.timedBatches(seconds)
			ti.points = driftSegment(t, seed, (w.Warmup+nb)*w.Batch)
			for i := 0; i < w.Warmup; i++ {
				ti.preload = append(ti.preload, encode(ti.points[i*w.Batch:(i+1)*w.Batch]))
			}
			every := w.QueryEvery
			q := 0
			for i := 0; i < nb; i++ {
				s := (w.Warmup + i) * w.Batch
				ti.batches = append(ti.batches, encode(ti.points[s:s+w.Batch]))
				ti.batchStart = append(ti.batchStart, s)
				after := (i+1)%every == 0
				ti.queryAfter = append(ti.queryAfter, after)
				if after {
					q++
				}
			}
			// Score evenly spaced queries against the last half-life of
			// points before each.
			samples := min(w.CostSamples, q)
			for j := 1; j <= samples; j++ {
				qi := j*q/samples - 1
				end := (w.Warmup + (qi+1)*every) * w.Batch
				ti.costQuery = append(ti.costQuery, costSample{
					Query: qi, From: max(0, end-int(w.HalfLife)), To: end,
				})
			}
		}
	}
	return in
}

// scoringSets lists, per tenant, the point sets cost_ratio scores.
func (in *inputs) scoringSets(t int) [][][]float64 {
	ti := &in.tenants[t]
	if in.w.Name == "drift" {
		sets := make([][][]float64, len(ti.costQuery))
		for i, c := range ti.costQuery {
			sets[i] = ti.points[c.From:c.To]
		}
		return sets
	}
	return [][][]float64{ti.points}
}

// referenceCosts computes the offline reference for every scoring set:
// streamkm.KMeansPlusPlus with 5 restarts and 20 Lloyd iterations. The
// result depends only on the generated points, so it is cached in
// cacheDir keyed by a hash of them.
func (in *inputs) referenceCosts(cacheDir string) {
	type job struct{ t, i int }
	var jobs []job
	for t := range in.tenants {
		sets := in.scoringSets(t)
		in.tenants[t].refCost = make([]float64, len(sets))
		for i := range sets {
			jobs = append(jobs, job{t, i})
		}
	}
	var wg sync.WaitGroup
	next := make(chan job)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				pts := in.scoringSets(j.t)[j.i]
				in.tenants[j.t].refCost[j.i] = cachedReference(cacheDir, pts, in.w.K)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
}

func cachedReference(dir string, pts [][]float64, k int) float64 {
	h := sha256.New()
	fmt.Fprintf(h, "ref-v1 k=%d n=%d\n", k, len(pts))
	var buf [8]byte
	for _, p := range pts {
		for _, v := range p {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	path := filepath.Join(dir, hex.EncodeToString(h.Sum(nil))[:32]+".json")
	if b, err := os.ReadFile(path); err == nil {
		var c float64
		if json.Unmarshal(b, &c) == nil && c > 0 {
			return c
		}
	}
	c := streamkm.Cost(pts, streamkm.KMeansPlusPlus(pts, k, 1, 5, 20))
	if dir != "" {
		if b, err := json.Marshal(c); err == nil {
			_ = os.WriteFile(path, b, 0o644) // a failed cache write only costs a recomputation
		}
	}
	return c
}
