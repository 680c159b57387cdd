// Command streamkm-bench is the repository's benchmark. It builds
// nothing itself (run.sh builds cmd/streamkmd and this program), starts
// the daemon as a child process, drives it from this separate
// load-generator process over at most two connections, checks every
// answer, and prints one JSON result line.
//
//	bash streamkm-bench/run.sh --workload ingest16 --seed 1 --seconds 10 --trace 0
//	bash streamkm-bench/run.sh --workload drift --heldout --trace 1
//	bash streamkm-bench/run.sh repeat --workload drift --runs 10 --out a.jsonl
//	bash streamkm-bench/run.sh compare a.jsonl b.jsonl
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bytes"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"streamkm"
	"streamkm/internal/trace"
)

// heldoutSeed is never used while tuning the benchmark or a change; a
// claim is re-checked on it with --heldout.
const heldoutSeed = 7919

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	cacheDir string
	spansDir string
	spec     string
}

func (c *config) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.workload, "workload", "", "workload name: ingest16 or drift")
	fs.Int64Var(&c.seed, "seed", 1, "input seed; the daemon sees only the generated points")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the timed phase")
	fs.StringVar(&c.daemon, "daemon", ".bench_build/streamkmd", "streamkmd binary to drive")
	fs.StringVar(&c.cacheDir, "cache", ".bench_build/refcache", "cache directory for offline reference costs")
	fs.StringVar(&c.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	fs.StringVar(&c.spec, "spec", "BENCHMARK.json", "benchmark definition: metric names, units, bounds")
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "repeat":
			exitOn(repeatMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		}
	}
	var c config
	fs := flag.NewFlagSet("streamkm-bench", flag.ExitOnError)
	c.flags(fs)
	traceN := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	heldout := fs.Bool("heldout", false, fmt.Sprintf("use the held-out seed %d", heldoutSeed))
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	c.trace = *traceN == 1
	// The inputs stay live for the whole run; collecting less often keeps
	// the generator's garbage collector out of the latencies it times.
	debug.SetGCPercent(400)
	if *heldout {
		c.seed = heldoutSeed
	}
	res, err := runOnce(c)
	if err != nil {
		exitOn(err)
	}
	if err := printResult(os.Stdout, res); err != nil {
		exitOn(err)
	}
	if !res.Correct {
		os.Exit(3)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamkm-bench:", err)
		os.Exit(1)
	}
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run: the contract's four keys plus the run record,
// printed on the line before them.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Record    *runRecord             `json:"-"`
}

func printResult(w io.Writer, r *result) error {
	rec, err := json.Marshal(r.Record)
	if err != nil {
		return err
	}
	last, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", rec, last)
	return err
}

// runRecord stamps a result with everything needed to reproduce and
// judge it.
type runRecord struct {
	Record       string                  `json:"record"`
	Workload     workload                `json:"workload"`
	Seed         int64                   `json:"seed"`
	Seconds      int                     `json:"seconds"`
	Trace        bool                    `json:"trace"`
	NProc        int                     `json:"nproc"`
	GOMAXPROCS   int                     `json:"gomaxprocs"`
	GoVersion    string                  `json:"go_version"`
	Commit       string                  `json:"commit"`
	DaemonShards []int                   `json:"daemon_shards"`
	SetupS       []float64               `json:"setup_s"`
	Phases       map[string]phaseSummary `json:"phases"`
	QueryTail    tail                    `json:"query_tail"`
	Ladder       ladderResult            `json:"ladder"`
	Cache        cacheSplit              `json:"cache"`
	CostRatios   []float64               `json:"cost_ratios"`
	Layers       map[string]float64      `json:"self_ms_total,omitempty"`
	ApplyShare   float64                 `json:"apply_share_of_ingest,omitempty"`
	NotExercised []string                `json:"not_exercised,omitempty"`
	SpansFile    string                  `json:"spans_file,omitempty"`
	Errors       []string                `json:"errors,omitempty"`
	Metrics      map[string]metricValue  `json:"metrics"`
}

type phaseSummary struct {
	WallS     float64        `json:"wall_s"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Acked     int64          `json:"acked_points"`
	Samples   map[string]int `json:"samples"`
}

// cacheSplit is the hit/miss split of the plain queries in the
// workload's query phase.
type cacheSplit struct {
	Phase  string `json:"phase"`
	Hits   int    `json:"hits"`
	Misses int    `json:"misses"`
}

func commitOf(bin string) string {
	var settings []debug.BuildSetting
	if bi, err := buildinfo.ReadFile(bin); err == nil {
		settings = bi.Settings
	}
	rev, dirty := "unknown", ""
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// measurement is everything one pass against one daemon produced.
type measurement struct {
	setups    []float64
	phases    []*phaseRec
	byName    map[string]*phaseRec
	ladder    ladderResult
	split     cacheSplit
	costs     []float64
	stored    int
	shards    []int
	rssMB     float64
	errs      []string
	pulled    map[string]trace.SpanData // traced runs: daemon spans by trace id
	queryTail tail
}

func runOnce(c config) (*result, error) {
	w, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want ingest16 or drift)", c.workload)
	}
	if c.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	spec, err := loadSpec(c.spec)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(c.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	if err := os.MkdirAll(c.cacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("reference cache: %w", err)
	}
	t0 := time.Now()
	in := makeInputs(w, c.seed, c.seconds)
	t1 := time.Now()
	in.referenceCosts(c.cacheDir)
	fmt.Fprintf(os.Stderr, "%s seed %d: inputs %.1fs, references %.1fs\n", w.Name, c.seed, t1.Sub(t0).Seconds(), time.Since(t1).Seconds())

	rec := &runRecord{
		Record: "streamkm-bench run record", Workload: w, Seed: c.seed, Seconds: c.seconds, Trace: c.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitOf(c.daemon),
	}
	res := &result{Record: rec, Metrics: map[string]metricValue{}}
	defs := spec.EndToEnd
	var m *measurement
	// Every pass's checks count, the untraced pass of a traced run too.
	var checked []*measurement
	if !c.trace {
		var ms []*measurement
		for p := 0; p < w.Passes; p++ {
			pm, err := measure(c.daemon, in, nil, setupsPerRun/w.Passes, p, w.Passes)
			if err != nil {
				return nil, err
			}
			ms = append(ms, pm)
		}
		m = pool(ms)
		endToEnd(m, in, res)
		checked = []*measurement{m}
	} else {
		defs = spec.PerLayer
		base, err := measure(c.daemon, in, nil, 1, 0, 1)
		if err != nil {
			return nil, err
		}
		sl := &spanLog{}
		m, err = measure(c.daemon, in, sl, 1, 0, 1)
		if err != nil {
			return nil, err
		}
		if err := perLayer(c, base, m, sl, in, res); err != nil {
			return nil, err
		}
		checked = []*measurement{base, m}
	}
	rec.SetupS = m.setups
	rec.DaemonShards = m.shards
	rec.Ladder = m.ladder
	rec.Cache = m.split
	rec.CostRatios = m.costs
	rec.QueryTail = m.queryTail
	rec.Phases = map[string]phaseSummary{}
	for _, p := range m.phases {
		s := phaseSummary{WallS: p.wall.Seconds(), Attempted: p.attempted, Failed: p.failed, Acked: p.acked, Samples: map[string]int{}}
		for k, v := range p.lat {
			s.Samples[k.String()] = len(v)
		}
		rec.Phases[p.name] = s
	}
	for _, pm := range checked {
		for _, p := range pm.phases {
			res.Attempted += p.attempted
			res.Failed += p.failed
		}
		rec.Errors = append(rec.Errors, pm.errs...)
	}
	res.Correct = len(rec.Errors) == 0 && res.Failed == 0

	// Every defined metric is reported, each with the unit the definition
	// gives it; a measured metric the definition lacks is a bug here.
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s defined in %s but not measured", d.Name, c.spec)
		}
		out[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
	}
	for name := range res.Metrics {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s measured but not defined in %s", name, c.spec)
		}
	}
	res.Metrics = out
	rec.Metrics = out
	return res, nil
}

// setUp starts a daemon and brings it to the state the timed phase
// starts from: healthy, tenants created, preload applied and centers
// caches warm.
func setUp(bin string, in *inputs, spans *spanLog) (*daemon, []*conn, []*tenantState, *phaseRec, time.Duration, error) {
	w := in.w
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, nil, nil, nil, 0, err
	}
	rec := newPhaseRec("setup")
	hc := &http.Client{Timeout: 30 * time.Second}
	for t := 0; t < w.Tenants; t++ {
		rec.attempted++
		req, err := http.NewRequest(http.MethodPut, d.base+"/streams/"+tenantID(t), bytes.NewReader(w.spec()))
		if err != nil {
			d.stop()
			return nil, nil, nil, nil, 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			rec.fail("create %s: %v", tenantID(t), err)
			continue
		}
		body, _ := io.ReadAll(resp.Body) // only for the error message
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			rec.fail("create %s: status %d: %.200s", tenantID(t), resp.StatusCode, body)
		}
	}
	hc.CloseIdleConnections()
	conns := make([]*conn, w.Clients)
	for i := range conns {
		conns[i] = newConn(d.base, w.K, w.dim(), spans)
	}
	ts := newTenantStates(in)
	seqs := make([][]op, w.Tenants)
	warm := make([][]op, w.Tenants)
	for t := range seqs {
		for _, b := range in.tenants[t].preload {
			seqs[t] = append(seqs[t], op{kind: opIngest, body: b, points: w.Batch})
		}
		warm[t] = []op{{kind: opQuery}}
	}
	rec.merge(runPhase("preload", conns, roundRobin(seqs, len(conns)), ts, false))
	rec.merge(runPhase("warm", conns, roundRobin(warm, len(conns)), ts, false))
	for _, t := range ts {
		t.hits, t.misses, t.queries = 0, 0, 0
	}
	return d, conns, ts, rec, time.Since(t0), nil
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.hc.CloseIdleConnections()
	}
}

// measure runs one complete pass: set-up (repeated setups times, each
// on a fresh daemon, keeping the last), the workload's phases, the
// checks, and teardown. It is pass number pass of passes: the run's
// ladder searches are spread over the rounds of all its passes.
func measure(bin string, in *inputs, spans *spanLog, setups, pass, passes int) (*measurement, error) {
	w := in.w
	m := &measurement{byName: map[string]*phaseRec{}}
	var (
		d     *daemon
		conns []*conn
		ts    []*tenantState
	)
	add := func(p *phaseRec) *phaseRec {
		m.phases = append(m.phases, p)
		m.byName[p.name] = p
		return p
	}
	setup := add(newPhaseRec("setup"))
	for i := 0; i < setups; i++ {
		var (
			took time.Duration
			srec *phaseRec
			err  error
		)
		d, conns, ts, srec, took, err = setUp(bin, in, spans)
		if err != nil {
			return nil, err
		}
		setup.merge(srec)
		setup.wall += took
		m.setups = append(m.setups, took.Seconds())
		if i < setups-1 {
			closeConns(conns)
			d.stop()
		}
	}
	defer d.stop()
	defer closeConns(conns)
	var puller *tracePuller
	if spans != nil {
		spans.reset() // set-up traffic is not part of the traced phases
		puller = startTracePuller(d.base, 200*time.Millisecond)
	}
	k := len(conns)
	split := func(phase string) {
		m.split = cacheSplit{Phase: phase}
		for _, t := range ts {
			m.split.Hits += t.hits
			m.split.Misses += t.misses
		}
	}
	// merge adds one round of a phase to rec.
	merge := func(rec, round *phaseRec) {
		rec.merge(round)
		rec.wall += round.wall
	}
	run := func(rec *phaseRec, seqs [][]op) {
		merge(rec, runPhase(rec.name, conns, roundRobin(seqs, k), ts, false))
	}
	refreshRec, ladderRec := newPhaseRec("refresh"), newPhaseRec("ladder")
	probesAt := func(rate float64, d time.Duration) [][]op {
		return openSchedule(rate, d, w.Tenants, k, func(t, n int) op { return op{kind: opProbe} })
	}
	// endRound follows each round of the timed phase. The forced
	// refreshes go open loop at a low rate: recomputations rarely overlap,
	// so each figure is its own cost. They leave every tenant's cache
	// fresh, so the ladder's probes all hit and leave the tenants as the
	// next round expects them; the refreshes themselves are part of the
	// fixed request sequence, so the clustering output still repeats.
	endRound := func(r int) {
		n := w.Refreshes * w.Tenants
		d := time.Duration(float64(n) / refreshRate * float64(time.Second))
		merge(refreshRec, runPhase("refresh", conns, openSchedule(refreshRate, d, w.Tenants, k, func(t, n int) op {
			return op{kind: opRefresh}
		}), ts, true))
		if (pass*rounds+r)%passes == 0 {
			m.ladder.add(searchLadder(conns, ts, probesAt, ladderRec))
		}
	}
	switch w.Name {
	case "ingest16":
		// The timed ingest runs in write-only rounds, each followed by
		// closed-loop reads: each tenant's first query of a round
		// recomputes over everything ingested so far (the tail), the rest
		// hit the cache (the median). An open loop at a rate the daemon
		// idles through timed the host waking an idle vCPU as much as the
		// daemon: its median ranged 0.36 to 0.55 ms over ten runs.
		main, read := add(newPhaseRec("main")), add(newPhaseRec("read"))
		for r := 0; r < rounds; r++ {
			writes := make([][]op, w.Tenants)
			reads := make([][]op, w.Tenants)
			for t := range writes {
				bs := in.tenants[t].batches
				for _, b := range bs[r*len(bs)/rounds : (r+1)*len(bs)/rounds] {
					writes[t] = append(writes[t], op{kind: opIngest, body: b, points: w.Batch})
				}
				for range readsPerRound {
					reads[t] = append(reads[t], op{kind: opQuery})
				}
			}
			run(main, writes)
			run(read, reads)
			endRound(r)
		}
		split("read")
		m.costs, m.errs = costRatios(in, func(t, _ int) [][]float64 { return ts[t].last })
	case "drift":
		main := add(newPhaseRec("main"))
		for r := 0; r < rounds; r++ {
			chunk := make([][]op, w.Tenants)
			for t := range chunk {
				ti := &in.tenants[t]
				nb := len(ti.batches)
				for i := r * nb / rounds; i < (r+1)*nb/rounds; i++ {
					chunk[t] = append(chunk[t], op{kind: opIngest, body: ti.batches[i], points: w.Batch})
					if ti.queryAfter[i] {
						chunk[t] = append(chunk[t], op{kind: opQuery})
					}
				}
			}
			run(main, chunk)
			endRound(r)
		}
		split("main")
		m.costs, m.errs = costRatios(in, func(t, i int) [][]float64 {
			return ts[t].scored[in.tenants[t].costQuery[i].Query]
		})
	}
	add(refreshRec)
	add(ladderRec)

	// Checks against the daemon's own view of each tenant.
	for _, p := range m.phases {
		m.errs = append(m.errs, p.errs...)
	}
	for t, st := range ts {
		var s struct {
			Count        int64 `json:"count"`
			PointsStored int   `json:"points_stored"`
			Shards       int   `json:"shards"`
		}
		if err := getJSON(d.base+"/streams/"+tenantID(t)+"/stats", &s); err != nil {
			m.errs = append(m.errs, err.Error())
			continue
		}
		if s.Count != st.acked {
			m.errs = append(m.errs, fmt.Sprintf("tenant %s: daemon counts %d points, %d were acknowledged", st.id, s.Count, st.acked))
		}
		m.stored += s.PointsStored
		m.shards = append(m.shards, s.Shards)
	}
	m.errs = append(m.errs, checkCosts(m.costs, w.MaxMissShare)...)
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("read daemon peak RSS: %w", err)
	}
	m.rssMB = rss
	if puller != nil {
		spansByTrace, err := puller.finish()
		if err != nil {
			return nil, err
		}
		m.pulled = spansByTrace
	}
	return m, nil
}

// pool merges the passes of one run: phases of the same name, set-ups
// and ladder searches are pooled. Each pass sends the same requests in
// the same order to a fresh daemon, so its cost ratios and hit/miss
// split must repeat the first pass's exactly.
func pool(ms []*measurement) *measurement {
	out := &measurement{byName: map[string]*phaseRec{}, costs: ms[0].costs}
	out.split.Phase = ms[0].split.Phase
	for i, m := range ms {
		for _, p := range m.phases {
			q, ok := out.byName[p.name]
			if !ok {
				q = newPhaseRec(p.name)
				out.byName[p.name] = q
				out.phases = append(out.phases, q)
			}
			q.merge(p)
			q.wall += p.wall
		}
		out.setups = append(out.setups, m.setups...)
		for _, s := range m.ladder.Searches {
			out.ladder.add(s)
		}
		out.split.Hits += m.split.Hits
		out.split.Misses += m.split.Misses
		out.errs = append(out.errs, m.errs...)
		if !reflect.DeepEqual(m.costs, ms[0].costs) || m.split != ms[0].split {
			out.errs = append(out.errs, fmt.Sprintf("pass %d: cost ratios %.4g and split %+v, pass 1: %.4g and %+v; the clustering output did not repeat",
				i+1, m.costs, m.split, ms[0].costs, ms[0].split))
		}
		out.stored, out.shards = m.stored, m.shards
		out.rssMB = max(out.rssMB, m.rssMB)
	}
	return out
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// costRatios scores the centers served for each scoring set against the
// offline reference: centers(t, i) returns the centers served for tenant
// t's i-th scoring set. One ratio per set, tenants in order; a set with
// no centers served (its query failed) is reported in errs instead.
func costRatios(in *inputs, centers func(t, i int) [][]float64) (out []float64, errs []string) {
	for t := range in.tenants {
		for i, pts := range in.scoringSets(t) {
			cs := centers(t, i)
			if cs == nil {
				errs = append(errs, fmt.Sprintf("tenant %s: no centers served for scored set %d", tenantID(t), i))
				continue
			}
			out = append(out, streamkm.Cost(pts, cs)/in.tenants[t].refCost[i])
		}
	}
	return out, errs
}

// costRatio is the geometric mean of the scored sets' ratios, each
// capped at costCap. A query whose k-means++ seeding left a cluster
// without a center scores about 10 on the drifting stream, by an amount
// that depends only on how far apart the clusters happen to lie; capped,
// it counts as one fixed-size failure, so the mean follows how often
// that happens and how good the other answers are.
func costRatio(rs []float64) float64 {
	if len(rs) == 0 {
		return 0
	}
	var s float64
	for _, r := range rs {
		s += math.Log(min(r, costCap))
	}
	return math.Exp(s / float64(len(rs)))
}

// checkCosts checks the uncapped ratios of the scored sets: at most
// maxMiss of them above costCap (a missed cluster), and the median of the
// rest in [costMin, costGoodMedian]. Single ratios may fall below
// costMin: the offline reference can miss a cluster too.
func checkCosts(rs []float64, maxMiss float64) []string {
	var good []float64
	for _, r := range rs {
		if math.IsNaN(r) {
			return []string{fmt.Sprintf("cost ratio is NaN (per scored set: %.3g)", rs)}
		}
		if r <= costCap {
			good = append(good, r)
		}
	}
	if len(rs) == 0 {
		return []string{"no scored cost ratios"}
	}
	var errs []string
	if miss := float64(len(rs)-len(good)) / float64(len(rs)); miss > maxMiss {
		errs = append(errs, fmt.Sprintf("%d of %d scored sets have a cost ratio above %v, more than %.0f%% (per scored set: %.3g)",
			len(rs)-len(good), len(rs), costCap, 100*maxMiss, rs))
	}
	if g := median(good); len(good) > 0 && !(g >= costMin && g <= costGoodMedian) {
		errs = append(errs, fmt.Sprintf("median cost ratio %.4g of the sets within %v is outside [%v, %v] (per scored set: %.3g)",
			g, costCap, costMin, costGoodMedian, rs))
	}
	return errs
}

// queryPhase names the phase whose plain queries the query latency
// figures are taken over: ingest16's reads between its write-only
// rounds, drift's timed phase itself.
func queryPhase(w workload) string {
	if w.Name == "ingest16" {
		return "read"
	}
	return "main"
}

// endToEnd fills the end-to-end metrics from an untraced measurement.
func endToEnd(m *measurement, in *inputs, res *result) {
	set := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v} }
	set("setup_s", median(m.setups))
	ingest, query, refresh := m.byName["main"], m.byName[queryPhase(in.w)], m.byName["refresh"]
	set("ingest_pts_per_s", ingest.rate())
	set("query_p50_ms", median(query.lat[opQuery]))
	tl, err := tailPercentile(query.lat[opQuery])
	if err != nil {
		m.errs = append(m.errs, "query tail: "+err.Error())
	}
	m.queryTail = tl
	set("query_p99_ms", tl.Value)
	set("query_max_qps", m.ladder.Achieved)
	if m.ladder.Achieved == 0 {
		m.errs = append(m.errs, "no ladder rung met the latency limit")
	}
	set("refresh_p50_ms", median(refresh.lat[opRefresh]))
	set("cost_ratio", costRatio(m.costs))
	// The ladder's request count depends on where its search goes, so the
	// rate is taken over the other phases, whose counts are fixed; a
	// failure in the ladder still fails the run's checks.
	attempted, failed := 0, 0
	for _, p := range m.phases {
		if p.name != "ladder" {
			attempted += p.attempted
			failed += p.failed
		}
	}
	set("error_rate", errorRateBound(failed, attempted))
	set("rss_peak_mb", m.rssMB)
}

// perLayer fills the per-layer metrics from a traced measurement, the
// untraced one beside it, and the in-process component pass.
func perLayer(c config, base, m *measurement, sl *spanLog, in *inputs, res *result) error {
	set := func(name string, v float64) { res.Metrics[name] = metricValue{Value: v} }
	var clients []clientSpan
	for _, s := range sl.all() {
		if s.Phase != "ladder" {
			clients = append(clients, s)
		}
	}
	js, coverage := joinSpans(clients, m.pulled)
	for name, v := range layerTimes(js) {
		set(name, v)
	}
	res.Record.Layers = selfBreakdown(js)
	if a, i := res.Metrics["streamkm.apply_ms"].Value, res.Metrics["server.ingest_ms"].Value; i > 0 {
		res.Record.ApplyShare = a / i
	}
	if in.w.Name == "drift" {
		// On the decayed backend a miss is exactly a span with a
		// shard-merge stage; the client-side classification must agree.
		for _, j := range js {
			if j.Daemon == nil || j.Client.Op != opQuery.String() {
				continue
			}
			_, merged := stageMs(*j.Daemon, "shard-merge")
			if merged == j.Client.Hit {
				m.errs = append(m.errs, fmt.Sprintf("trace %s: client saw hit=%v but shard-merge present=%v", j.Client.TraceID, j.Client.Hit, merged))
				break
			}
		}
	}
	set("bench.span_coverage", coverage)
	late, err := tailPercentile(m.byName[queryPhase(in.w)].late)
	if err != nil {
		return fmt.Errorf("generator lateness: %w", err)
	}
	set("bench.gen_late_p99_ms", late.Value)
	untraced := base.byName["main"].rate()
	set("bench.trace_overhead", (untraced-m.byName["main"].rate())/untraced) // ingest rate: lower when traced
	set("streamkm.hits", float64(m.split.Hits))
	set("streamkm.misses", float64(m.split.Misses))
	if n := m.split.Hits + m.split.Misses; n > 0 {
		set("streamkm.hit_ratio", float64(m.split.Hits)/float64(n))
	} else {
		set("streamkm.hit_ratio", 0)
	}
	set("streamkm.points_stored", float64(m.stored))

	comp, skipped := componentPass(in)
	for name, v := range comp {
		set(name, v)
	}
	set("streamkm.inproc_pts_per_s", inprocRate(in))
	for _, name := range skipped {
		set(name, 0)
	}
	for name, v := range res.Metrics {
		if v.Value == 0 {
			res.Record.NotExercised = append(res.Record.NotExercised, name)
		}
	}
	sort.Strings(res.Record.NotExercised)

	if err := os.MkdirAll(c.spansDir, 0o755); err != nil {
		return fmt.Errorf("spans directory: %w", err)
	}
	path := filepath.Join(c.spansDir, fmt.Sprintf("%s-seed%d.jsonl", in.w.Name, in.seed))
	if err := writeSpans(path, js); err != nil {
		return err
	}
	res.Record.SpansFile = path
	printBreakdown(os.Stderr, in.w.Name, res.Record.Layers, coverage, len(js))
	return nil
}

// printBreakdown writes the traced run's self-time table to w.
func printBreakdown(w io.Writer, name string, layers map[string]float64, coverage float64, n int) {
	names := make([]string, 0, len(layers))
	var total float64
	for k, v := range layers {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(w, "%s: self time by layer over %d traced requests (span coverage %.1f%%)\n", name, n, 100*coverage)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %10.1f ms  %5.1f%%\n", k, layers[k], 100*layers[k]/total)
	}
}
