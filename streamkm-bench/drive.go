package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"
)

type opKind int

const (
	opIngest opKind = iota
	opQuery
	opRefresh
	// opProbe is a ladder query: a plain GET /centers whose answer is
	// checked but not counted among the workload's queries, so a ladder
	// search between rounds leaves the hit/miss split and the scored
	// queries as they would be without it.
	opProbe
)

func (k opKind) String() string {
	return [...]string{"ingest", "query", "refresh", "probe"}[k]
}

// op is one request. due is its send time as an offset from the phase
// start in an open loop; in a closed loop every op is due when the
// previous one on its connection completes.
type op struct {
	tenant int
	kind   opKind
	body   []byte
	points int
	due    time.Duration
}

// tenantState is what the benchmark knows about one tenant. Exactly one
// connection drives a tenant, and phases run one after another, so a
// state is only ever touched by one goroutine at a time.
type tenantState struct {
	id      string
	acked   int64
	last    [][]float64 // centers of the latest centers response
	queries int         // plain (non-refresh) queries answered
	hits    int         // plain queries answered with the previous centers unchanged
	misses  int
	// scored holds the centers of the plain queries cost_ratio scores,
	// keyed by query sequence number; the keys are set up front.
	scored map[int][][]float64
}

func newTenantStates(in *inputs) []*tenantState {
	ts := make([]*tenantState, in.w.Tenants)
	for t := range ts {
		st := &tenantState{id: tenantID(t), scored: map[int][][]float64{}}
		for _, c := range in.tenants[t].costQuery {
			st.scored[c.Query] = nil
		}
		ts[t] = st
	}
	return ts
}

// phaseRec collects what one phase measured.
type phaseRec struct {
	name      string
	wall      time.Duration
	lat       map[opKind][]float64 // ms; open loop: from the due time
	late      []float64            // ms the generator itself sent late
	attempted int
	failed    int
	acked     int64
	errs      []string
}

// rate is the points acknowledged per second of the phase's wall time.
func (r *phaseRec) rate() float64 {
	return float64(r.acked) / r.wall.Seconds()
}

func newPhaseRec(name string) *phaseRec {
	return &phaseRec{name: name, lat: map[opKind][]float64{}}
}

func (r *phaseRec) merge(o *phaseRec) {
	for k, v := range o.lat {
		r.lat[k] = append(r.lat[k], v...)
	}
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.acked += o.acked
	if len(r.errs) < 5 {
		r.errs = append(r.errs, o.errs[:min(len(o.errs), 5-len(r.errs))]...)
	}
}

func (r *phaseRec) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, r.name+": "+fmt.Sprintf(format, args...))
	}
}

// conn is one client connection of the load generator.
type conn struct {
	base  string
	hc    *http.Client
	spans *spanLog // nil in untraced runs
	k     int
	dim   int
}

func newConn(base string, k, dim int, spans *spanLog) *conn {
	return &conn{
		base: base, k: k, dim: dim, spans: spans,
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

// run executes ops in order on this connection. In an open loop each op
// waits for its due time and its latency counts from then.
func (c *conn) run(phase string, start time.Time, ops []op, ts []*tenantState, open bool, rec *phaseRec) {
	prevEnd := start
	for _, o := range ops {
		due := prevEnd
		if open {
			due = start.Add(o.due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		sent := time.Now()
		ready := due
		if prevEnd.After(ready) {
			ready = prevEnd
		}
		// The wait from the due time until the connection was free is
		// backlog the system caused and counts as latency; the time the
		// generator took beyond that (timer slop, scheduling) is its own
		// lateness, reported apart so it cannot hide in the latency.
		rec.late = append(rec.late, ms(sent.Sub(ready)))
		end := c.do(phase, o, ts[o.tenant], rec)
		rec.lat[o.kind] = append(rec.lat[o.kind], ms(end.Sub(sent)+ready.Sub(due)))
		prevEnd = end
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

type centersResp struct {
	K       int         `json:"k"`
	Count   int64       `json:"count"`
	Centers [][]float64 `json:"centers"`
}

// do sends one request, checks its response and updates the tenant.
func (c *conn) do(phase string, o op, t *tenantState, rec *phaseRec) time.Time {
	rec.attempted++
	var req *http.Request
	var err error
	path := c.base + "/streams/" + t.id
	switch o.kind {
	case opIngest:
		req, err = http.NewRequest(http.MethodPost, path+"/ingest", bytes.NewReader(o.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/x-streamkm-batch")
		}
	case opQuery, opProbe:
		req, err = http.NewRequest(http.MethodGet, path+"/centers", nil)
	case opRefresh:
		req, err = http.NewRequest(http.MethodGet, path+"/centers?refresh=1", nil)
	}
	if err != nil {
		rec.fail("build request: %v", err)
		return time.Now()
	}
	var cs clientSpan
	if c.spans != nil {
		var tp string
		cs.TraceID, cs.SpanID, tp = newTraceparent()
		req.Header.Set("traceparent", tp)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	status := 0
	if resp != nil {
		status = resp.StatusCode
	}
	hit := c.check(o, t, status, body, err, rec)
	if c.spans != nil {
		cs.Op, cs.Tenant, cs.Phase = o.kind.String(), t.id, phase
		cs.StartNs, cs.EndNs, cs.Status, cs.Hit = start.UnixNano(), end.UnixNano(), status, hit
		c.spans.add(cs)
	}
	return end
}

// check validates one response: the expected status, every point of an
// ingest acknowledged, and k centers of the stream's dimension from a
// query. It reports whether a plain query was a cache hit.
func (c *conn) check(o op, t *tenantState, status int, body []byte, err error, rec *phaseRec) bool {
	if err != nil {
		rec.fail("%s %s: %v", o.kind, t.id, err)
		return false
	}
	if status != http.StatusOK {
		rec.fail("%s %s: unexpected status %d: %.200s", o.kind, t.id, status, body)
		return false
	}
	if o.kind == opIngest {
		var r struct {
			Ingested int64 `json:"ingested"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			rec.fail("ingest %s: decode: %v", t.id, err)
			return false
		}
		if r.Ingested != int64(o.points) {
			rec.fail("ingest %s: %d of %d points acknowledged", t.id, r.Ingested, o.points)
		}
		t.acked += r.Ingested
		rec.acked += r.Ingested
		return false
	}
	var r centersResp
	if err := json.Unmarshal(body, &r); err != nil {
		rec.fail("%s %s: decode: %v", o.kind, t.id, err)
		return false
	}
	if len(r.Centers) != c.k {
		rec.fail("%s %s: %d centers, want %d", o.kind, t.id, len(r.Centers), c.k)
		return false
	}
	for _, p := range r.Centers {
		if len(p) != c.dim {
			rec.fail("%s %s: center of dimension %d, want %d", o.kind, t.id, len(p), c.dim)
			return false
		}
	}
	hit := false
	if o.kind == opQuery {
		// A cached answer repeats the previous centers bit for bit; a
		// recomputation over a grown stream does not.
		hit = t.last != nil && sameCenters(t.last, r.Centers)
		if hit {
			t.hits++
		} else {
			t.misses++
		}
		if _, ok := t.scored[t.queries]; ok {
			t.scored[t.queries] = r.Centers
		}
		t.queries++
	}
	t.last = r.Centers
	return hit
}

func sameCenters(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// runPhase runs one op list per connection concurrently and returns the
// merged record. Connection i carries perConn[i].
func runPhase(name string, conns []*conn, perConn [][]op, ts []*tenantState, open bool) *phaseRec {
	recs := make([]*phaseRec, len(conns))
	var wg sync.WaitGroup
	// Collect now rather than during the phase: the generator holds its
	// whole input, and a collection cycle's assists would stall the
	// connections it times.
	runtime.GC()
	start := time.Now()
	for i := range conns {
		recs[i] = newPhaseRec(name)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conns[i].run(name, start, perConn[i], ts, open, recs[i])
		}(i)
	}
	wg.Wait()
	out := newPhaseRec(name)
	out.wall = time.Since(start)
	for _, r := range recs {
		out.merge(r)
	}
	return out
}

// Tenant t is driven by connection t % conns for the whole run.

// roundRobin interleaves each connection's tenants' op sequences (seqs[t]
// is tenant t's) one op at a time, so a connection serves its tenants
// fairly while each tenant's own order is kept.
func roundRobin(seqs [][]op, conns int) [][]op {
	out := make([][]op, conns)
	for c := range out {
		var mine []int
		for t := c; t < len(seqs); t += conns {
			mine = append(mine, t)
		}
		for i := 0; ; i++ {
			any := false
			for _, t := range mine {
				if i < len(seqs[t]) {
					o := seqs[t][i]
					o.tenant = t
					out[c] = append(out[c], o)
					any = true
				}
			}
			if !any {
				break
			}
		}
	}
	return out
}

// openSchedule lays out an open-loop schedule at rate requests/s for d:
// connection c sends every conns/rate seconds, staggered, and event j on
// a connection goes to its tenants in turn. next builds the op for a
// tenant's n-th event.
func openSchedule(rate float64, d time.Duration, tenants, conns int, next func(t, n int) op) [][]op {
	out := make([][]op, conns)
	period := time.Duration(float64(time.Second) * float64(conns) / rate)
	count := make([]int, tenants)
	for c := range out {
		var mine []int
		for t := c; t < tenants; t += conns {
			mine = append(mine, t)
		}
		offset := time.Duration(float64(time.Second) * float64(c) / rate)
		for j := 0; ; j++ {
			due := offset + time.Duration(j)*period
			if due >= d {
				break
			}
			t := mine[j%len(mine)]
			o := next(t, count[t])
			count[t]++
			o.tenant, o.due = t, due
			out[c] = append(out[c], o)
		}
	}
	return out
}

// ladderSearch is one bisection of the ladder.
type ladderSearch struct {
	Rate     float64   `json:"rate"`     // nominal query rate of the best passing rung
	Achieved float64   `json:"achieved"` // queries completed per second on it
	Probes   []float64 `json:"probes"`   // query rates tried, in order
	TailsMs  []float64 `json:"tails_ms"` // each probe's tail latency; -1 when a request failed
}

// ladderResult is the outcome of the query-rate searches.
type ladderResult struct {
	Achieved float64        `json:"achieved"` // median over the searches
	Searches []ladderSearch `json:"searches"`
}

// add records one search; the result is the median of the searches. A
// stall from outside the system under test can only make a rung fail,
// and one failed probe sends a bisection far down; the median keeps one
// or two such searches from deciding the figure.
func (l *ladderResult) add(s ladderSearch) {
	l.Searches = append(l.Searches, s)
	rates := make([]float64, len(l.Searches))
	for i, s := range l.Searches {
		rates[i] = s.Achieved
	}
	l.Achieved = median(rates)
}

// searchLadder bisects the ladder for the highest rung whose
// open-loop tail query latency stays within ladderLimitMs, with no failed
// request; a growing backlog shows as a growing tail. Each probe runs
// ladderRung ms of the load sched builds for a query rate.
func searchLadder(conns []*conn, ts []*tenantState, sched func(rate float64, d time.Duration) [][]op, rec *phaseRec) ladderSearch {
	var s ladderSearch
	lo, hi := -1, ladderRungs-1 // lo: highest rung known to pass
	d := time.Duration(ladderRung) * time.Millisecond
	for p := 0; p < ladderProbes && lo < hi; p++ {
		mid := (lo + hi + 1) / 2
		r := ladderBase * math.Pow(ladderStep, float64(mid))
		pr := runPhase("ladder", conns, sched(r, d), ts, true)
		rec.merge(pr)
		rec.wall += pr.wall
		q := pr.lat[opProbe]
		tl, err := tailPercentile(q)
		ok := err == nil && pr.failed == 0
		s.Probes = append(s.Probes, r)
		if ok {
			s.TailsMs = append(s.TailsMs, tl.Value)
		} else {
			s.TailsMs = append(s.TailsMs, -1)
		}
		if ok && tl.Value <= ladderLimitMs {
			lo = mid
			s.Rate, s.Achieved = r, float64(len(q))/pr.wall.Seconds()
		} else {
			hi = mid - 1
			time.Sleep(100 * time.Millisecond) // let the backlog drain
		}
	}
	return s
}
