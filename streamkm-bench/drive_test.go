package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallFromDueTime stalls the first of ten requests
// due 10ms apart for 60ms. The requests due during the stall wait behind
// it on the one connection; their latency must count that wait from
// their due time, and none of it may be blamed on the generator.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		w.Write([]byte(`{"k":1,"count":1,"centers":[[1]]}`))
	}))
	defer srv.Close()
	c := newConn(srv.URL, 1, 1, nil)
	ts := []*tenantState{{id: "t00", scored: map[int][][]float64{}}}
	var ops []op
	for i := 0; i < 10; i++ {
		ops = append(ops, op{kind: opQuery, due: time.Duration(i) * 10 * time.Millisecond})
	}
	rec := newPhaseRec("test")
	c.run("test", time.Now(), ops, ts, true, rec)
	if rec.failed != 0 {
		t.Fatalf("failed requests: %v", rec.errs)
	}
	lat := rec.lat[opQuery]
	if lat[0] < 60 {
		t.Errorf("stalled request latency %.1fms, want >= 60", lat[0])
	}
	// Request i was due at 10i ms and could not start before ~60ms.
	for i := 1; i <= 4; i++ {
		if min := 60 - 10*float64(i); lat[i] < min {
			t.Errorf("request %d latency %.1fms, want >= %.0f (waited behind the stall)", i, lat[i], min)
		}
	}
	// After the backlog drains, requests go out on time again.
	if lat[9] > 20 {
		t.Errorf("request 9 latency %.1fms, want the backlog drained", lat[9])
	}
	for i, l := range rec.late {
		if l > 5 {
			t.Errorf("request %d: generator lateness %.1fms, the stall was charged to the generator", i, l)
		}
	}
	if ts[0].hits != 9 || ts[0].misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 9/1: unchanged centers are cache hits", ts[0].hits, ts[0].misses)
	}
}

func TestScheduleKeepsTenantOnOneConnection(t *testing.T) {
	sched := openSchedule(1000, 100*time.Millisecond, 5, 2, func(t, n int) op { return op{kind: opQuery} })
	total := 0
	for c, ops := range sched {
		var prev time.Duration = -1
		for _, o := range ops {
			if o.tenant%2 != c {
				t.Fatalf("tenant %d scheduled on connection %d", o.tenant, c)
			}
			if o.due <= prev {
				t.Fatalf("connection %d: due times not increasing", c)
			}
			prev = o.due
		}
		total += len(ops)
	}
	if total != 100 {
		t.Errorf("%d requests in 100ms at 1000/s, want 100", total)
	}

	seqs := [][]op{
		{{kind: opIngest, points: 1}, {kind: opQuery}},
		{{kind: opIngest, points: 2}},
		{{kind: opIngest, points: 3}, {kind: opRefresh}},
	}
	rr := roundRobin(seqs, 2)
	want := [][]struct {
		tenant int
		kind   opKind
	}{
		{{0, opIngest}, {2, opIngest}, {0, opQuery}, {2, opRefresh}},
		{{1, opIngest}},
	}
	for c := range want {
		if len(rr[c]) != len(want[c]) {
			t.Fatalf("connection %d: %d ops, want %d", c, len(rr[c]), len(want[c]))
		}
		for i, w := range want[c] {
			if rr[c][i].tenant != w.tenant || rr[c][i].kind != w.kind {
				t.Errorf("connection %d op %d = tenant %d %v, want tenant %d %v", c, i, rr[c][i].tenant, rr[c][i].kind, w.tenant, w.kind)
			}
		}
	}
}

// TestIngestRateCountsAStall stalls one of ten ingests for 300ms. The
// rate is the phase's acknowledged points over its whole wall time, so
// the stall must lower it: no part of the phase is left out.
func TestIngestRateCountsAStall(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte(`{"ingested":250}`))
	}))
	defer srv.Close()
	ops := [][]op{nil}
	for i := 0; i < 10; i++ {
		ops[0] = append(ops[0], op{kind: opIngest, points: 250})
	}
	ts := []*tenantState{{id: "t00", scored: map[int][][]float64{}}}
	r := runPhase("test", []*conn{newConn(srv.URL, 1, 1, nil)}, ops, ts, false)
	if r.failed != 0 || r.acked != 2500 {
		t.Fatalf("acked %d points with %d failures (%v), want 2500 and none", r.acked, r.failed, r.errs)
	}
	if got, want := r.rate(), 2500/r.wall.Seconds(); got != want {
		t.Errorf("rate = %v, want acknowledged points over wall time %v", got, want)
	}
	if got := r.rate(); got >= 2500/0.3 {
		t.Errorf("rate = %v points/s, want below %v: the stall was left out", got, 2500/0.3)
	}
}
