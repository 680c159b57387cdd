package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"streamkm/internal/trace"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{20, 50},  // overlaps the next one
		{10, 30},  //
		{-5, 5},   // starts before the parent
		{90, 120}, // ends after it
		{40, 45},  // nested in the first
		{60, 60},  // empty
	}
	// Covered: [0,5) + [10,50) + [90,100) = 55.
	if got := selfTime(parent, children); got != 45 {
		t.Errorf("selfTime = %d, want 45", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("no children: selfTime = %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{-10, 200}}); got != 0 {
		t.Errorf("fully covered: selfTime = %d, want 0", got)
	}
}

func TestStageSelfNestsShardMerge(t *testing.T) {
	d := trace.SpanData{DurMs: 10, Stages: []trace.Stage{
		{Name: "lock-wait", Ms: 1},
		{Name: "coreset-recompute", Ms: 6},
		{Name: "shard-merge", Ms: 4},
	}}
	stages, self := stageSelf(d)
	if self != 3 {
		t.Errorf("span self = %v, want 10 - 1 - 6 = 3", self)
	}
	if stages["coreset-recompute"] != 2 || stages["shard-merge"] != 4 || stages["lock-wait"] != 1 {
		t.Errorf("stage self times = %v", stages)
	}
}

// TestJoinThroughTheRing drives a real trace.Recorder the way the daemon
// does: each request joins the client's traceparent. The ring holds two
// spans, so the first of three requests is evicted before the pull and
// stays unjoined; a daemon span under a foreign parent is not joined.
func TestJoinThroughTheRing(t *testing.T) {
	rec := trace.NewRecorder(2, 1)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	var clients []clientSpan
	for i, durMs := range []int{1, 20, 2} {
		tid, sid, header := newTraceparent()
		pt, parent, _, ok := trace.Parse(header)
		if !ok {
			t.Fatalf("request %d: bad traceparent %q", i, header)
		}
		sp := rec.StartSpan("centers", pt, parent)
		time.Sleep(time.Duration(durMs) * time.Millisecond)
		sp.End()
		clients = append(clients, clientSpan{TraceID: tid, SpanID: sid, Op: "query"})
	}
	// A span in the client's trace but under another parent must not join.
	tid, sid, header := newTraceparent()
	pt, _, _, _ := trace.Parse(header)
	rec.StartSpan("centers", pt, trace.NewSpanID()).End()
	clients = append(clients, clientSpan{TraceID: tid, SpanID: sid, Op: "query"})

	p := startTracePuller(srv.URL, time.Hour) // only the final pull runs
	daemon, err := p.finish()
	if err != nil {
		t.Fatal(err)
	}
	js, coverage := joinSpans(clients, daemon)
	// The ring keeps the last two spans (request 2 and the foreign one)
	// and the slowest list keeps request 1; request 0 is gone.
	want := []bool{false, true, true, false}
	for i, j := range js {
		if (j.Daemon != nil) != want[i] {
			t.Errorf("client span %d joined = %v, want %v", i, j.Daemon != nil, want[i])
		}
	}
	if coverage != 0.5 {
		t.Errorf("coverage = %v, want 0.5", coverage)
	}
}
