package main

import (
	"math"
	"math/rand"
	"time"

	"streamkm"
	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/decay"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/wire"
)

// The component pass times direct calls into the public functions of
// each layer, on the workload's own generated points and configuration
// (bucket size m = 20k, merge degree 2, one k-means++ run per query, as
// the daemon runs them). It runs after the daemon has stopped, so
// nothing else competes for the CPU.

// countingBuilder is a coreset.Builder that counts Build calls.
type countingBuilder struct {
	coreset.Builder
	builds int
}

func (b *countingBuilder) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	b.builds++
	return b.Builder.Build(rng, pts, m)
}

// timeMs runs f reps times and returns the median wall time in ms.
func timeMs(reps int, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		f()
		xs[i] = ms(time.Since(t0))
	}
	return median(xs)
}

// stream returns tenant 0's timed-phase points in send order.
func (in *inputs) stream() []geom.Weighted {
	ti := &in.tenants[0]
	var out []geom.Weighted
	for _, s := range ti.batchStart {
		for _, p := range ti.points[s : s+in.w.Batch] {
			out = append(out, geom.Weighted{P: p, W: 1})
		}
	}
	return out
}

func weighted(pts [][]float64) []geom.Weighted {
	out := make([]geom.Weighted, len(pts))
	for i, p := range pts {
		out[i] = geom.Weighted{P: p, W: 1}
	}
	return out
}

var queryOpt = kmeans.Options{Runs: 1, Tol: 1e-4}

// nearestSink keeps the timed nearest-center scans from being optimized
// away.
var nearestSink float64

// componentPass returns the per-layer component timings, and the names
// of those this workload does not exercise.
func componentPass(in *inputs) (map[string]float64, []string) {
	w := in.w
	m := 20 * w.K
	pts := weighted(in.tenants[0].points)
	out := map[string]float64{}
	seed := in.seed

	// geom: one nearest-center scan of a point against m centers.
	fc := geom.FlattenCenters(geom.Points(pts[:m]))
	probe := pts[m : 3*m]
	perCall := make([]float64, 7)
	for r := range perCall {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for _, p := range probe {
				nearestSink, _ = fc.Nearest(p.P)
			}
			calls += len(probe)
		}
		perCall[r] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	out["geom.nearest_ns"] = median(perCall)

	// kmeans and coreset: the 2m -> m reduction a bucket merge performs.
	two := pts[:2*m]
	rng := rand.New(rand.NewSource(seed))
	out["kmeans.seedpp_ms"] = timeMs(7, func() { kmeans.SeedPP(rng, two, m) })
	out["coreset.build_ms"] = timeMs(7, func() { coreset.KMeansPP{}.Build(rng, two, m) })

	// core: CC bucket updates over tenant 0's stream, and its query-time
	// merge through the coreset cache after each update.
	cb := &countingBuilder{Builder: coreset.KMeansPP{}}
	cc := core.NewCC(2, m, cb, rand.New(rand.NewSource(seed)))
	st := in.stream()
	var upd, cor []float64
	for s := 0; s+m <= len(st); s += m {
		t0 := time.Now()
		cc.Update(geom.CloneWeighted(st[s : s+m]))
		upd = append(upd, ms(time.Since(t0)))
		t0 = time.Now()
		cc.Coreset()
		cor = append(cor, ms(time.Since(t0)))
	}
	out["core.update_ms"] = mean(upd)
	out["core.coreset_ms"] = median(cor)
	updBuilds := cb.builds
	out["coreset.builds_per_kpt"] = float64(updBuilds) / (float64(len(upd)*m) / 1000)
	union := cc.Coreset()

	var skipped []string
	if w.Backend == "decayed" {
		sh, err := decay.NewSharded(w.Shards, w.K, math.Ln2/w.HalfLife, seed, queryOpt,
			func(_ int, s int64) *core.Driver {
				r := rand.New(rand.NewSource(s))
				return core.NewDriver(core.NewCC(2, m, coreset.KMeansPP{}, r), w.K, m, r, queryOpt)
			})
		if err != nil {
			panic(err) // the workload table fixes valid parameters
		}
		var merges []float64
		for i := 0; i*w.Batch < len(st); i++ {
			sh.AddBatch(st[i*w.Batch : min(len(st), (i+1)*w.Batch)])
			if (i+1)%10 == 0 {
				merges = append(merges, timeMs(1, func() { sh.Coreset() }))
			}
		}
		out["decay.coreset_ms"] = median(merges)
		union = sh.Coreset()
	} else {
		skipped = append(skipped, "decay.coreset_ms", "decay.shard_merge_ms")
	}
	out["kmeans.run_ms"] = timeMs(7, func() { kmeans.Run(rng, union, w.K, queryOpt) })

	// wire: decoding the workload's own request bodies.
	bodies := in.tenants[0].batches
	if len(bodies) > 64 {
		bodies = bodies[:64]
	}
	var dec []float64
	for range 5 {
		for _, b := range bodies {
			t0 := time.Now()
			if _, err := wire.Decode(b, wire.Limits{}, nil); err != nil {
				panic(err) // bodies were encoded by wire.EncodeBatch
			}
			dec = append(dec, ms(time.Since(t0)))
		}
	}
	out["wire.decode_pass_ms"] = median(dec)
	return out, skipped
}

// inprocRate feeds the workload's tenant streams single-threaded through
// streamkm.Open with no HTTP, round-robin one batch at a time as the
// connections do, for at most two seconds of ingest, and returns points
// per second: the single-thread baseline for the daemon's ingest rate.
func inprocRate(in *inputs) float64 {
	w := in.w
	bs := make([]streamkm.Backend, w.Tenants)
	for t := range bs {
		b, err := streamkm.Open(w.backendSpec(), streamkm.Config{})
		if err != nil {
			panic(err) // the workload table fixes valid parameters
		}
		bs[t] = b
	}
	var busy time.Duration
	points := 0
	for i := 0; busy < 2*time.Second; i++ {
		fed := false
		for t := range bs {
			ti := &in.tenants[t]
			if i >= len(ti.batches) {
				continue
			}
			batch, err := wire.Decode(ti.batches[i], wire.Limits{}, nil)
			if err != nil {
				panic(err) // bodies were encoded by wire.EncodeBatch
			}
			t0 := time.Now()
			bs[t].AddBatch(batch.Points)
			busy += time.Since(t0)
			points += batch.Len()
			fed = true
		}
		if !fed {
			break
		}
	}
	return float64(points) / busy.Seconds()
}

// selfBreakdown totals self time per layer over the joined spans: the
// network and client (client span minus daemon span), the daemon's
// handler outside any stage, and each stage net of its nested stages.
func selfBreakdown(js []joinedSpan) map[string]float64 {
	out := map[string]float64{}
	for _, j := range js {
		if j.Daemon == nil {
			continue
		}
		d := j.Daemon
		out["bench.net+client"] += float64(selfTime(
			interval{j.Client.StartNs, j.Client.EndNs},
			[]interval{{d.StartUnixNs, d.StartUnixNs + int64(d.DurMs*1e6)}},
		)) / 1e6
		stages, self := stageSelf(*d)
		out["server."+d.Name+".self"] += self
		for name, v := range stages {
			out["stage."+name] += v
		}
	}
	return out
}
