package server

import (
	"net/http"
	"sort"
	"time"

	"streamkm/internal/metrics"
)

// Prometheus exposition for the serving processes: GET /metrics on the
// multi-tenant Multi and (in internal/ring) the router. Everything is derived from the same counters /stats
// serves as JSON; the histograms add the latency distribution JSON only
// summarizes as p50/p95.

// promContentType is the text exposition format version the handlers
// emit.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// endpointSample pairs an endpoint name with its counter snapshot.
type endpointSample struct {
	name string
	snap metrics.EndpointSnapshot
}

// writeCommonMetrics emits the families every serving process shares:
// per-endpoint request counters and latency histograms, checkpoint
// counters, and uptime.
func writeCommonMetrics(e *metrics.Exposition, eps []endpointSample, ck metrics.CheckpointSnapshot, start time.Time) {
	req := e.Counter("streamkm_endpoint_requests_total", "Requests handled, by endpoint.")
	for _, ep := range eps {
		req.Add(float64(ep.snap.Requests), "endpoint", ep.name)
	}
	errs := e.Counter("streamkm_endpoint_errors_total", "Requests answered with an error status, by endpoint.")
	for _, ep := range eps {
		errs.Add(float64(ep.snap.Errors), "endpoint", ep.name)
	}
	items := e.Counter("streamkm_endpoint_items_total", "Items processed (points ingested, centers served), by endpoint.")
	for _, ep := range eps {
		items.Add(float64(ep.snap.Items), "endpoint", ep.name)
	}
	lat := e.Histogram("streamkm_endpoint_latency_seconds", "Request latency in seconds, by endpoint.")
	for _, ep := range eps {
		lat.Add(ep.snap.Latency, "endpoint", ep.name)
	}
	cks := e.Counter("streamkm_checkpoints_total", "Checkpoint attempts, by result.")
	cks.Add(float64(ck.Written), "result", "written")
	cks.Add(float64(ck.Failed), "result", "failed")
	e.Gauge("streamkm_uptime_seconds", "Seconds since process start.").Add(time.Since(start).Seconds())
}

// serveProm writes the accumulated exposition.
func serveProm(w http.ResponseWriter, e *metrics.Exposition) {
	w.Header().Set("Content-Type", promContentType)
	e.WriteTo(w)
}

// handleMetrics serves the multi-tenant daemon's Prometheus exposition:
// the common endpoint families plus registry lifecycle counters,
// residency gauges and the per-tenant ingest/query series.
func (m *Multi) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := m.reg.Stats()
	var e metrics.Exposition
	writeCommonMetrics(&e, []endpointSample{
		{"ingest", m.ingestStats.Snapshot()},
		{"centers", m.centersStats.Snapshot()},
		{"stats", m.statsStats.Snapshot()},
		{"snapshot", m.snapshotStats.Snapshot()},
		{"admin", m.adminStats.Snapshot()},
	}, st.Checkpoint, m.start)

	g := e.Gauge("streamkm_streams", "Registered streams, by residency state.")
	g.Add(float64(st.Resident), "state", "resident")
	g.Add(float64(st.Hibernated), "state", "hibernated")

	lf := st.Registry
	ev := e.Counter("streamkm_registry_events_total", "Registry lifecycle events, by type.")
	ev.Add(float64(lf.Creates), "event", "create")
	ev.Add(float64(lf.Deletes), "event", "delete")
	ev.Add(float64(lf.Evictions), "event", "eviction")
	ev.Add(float64(lf.EvictFailures), "event", "evict_failure")
	ev.Add(float64(lf.Restores), "event", "restore")
	ev.Add(float64(lf.StandbyInstalls), "event", "standby_install")
	ev.Add(float64(lf.Throttled), "event", "throttle")
	ev.Add(float64(lf.Shed), "event", "shed")
	ev.Add(float64(lf.Sweeps), "event", "sweep")

	type tsnap struct {
		id            string
		ingest, query metrics.EndpointSnapshot
	}
	var ts []tsnap
	m.tenants.Range(func(k, v interface{}) bool {
		t := v.(*tenantStats)
		ts = append(ts, tsnap{id: k.(string), ingest: t.ingest.Snapshot(), query: t.query.Snapshot()})
		return true
	})
	other := tsnap{id: tenantOverflow, ingest: m.tenantOther.ingest.Snapshot(), query: m.tenantOther.query.Snapshot()}
	if other.ingest.Requests > 0 || other.query.Requests > 0 {
		ts = append(ts, other)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })

	treq := e.Counter("streamkm_tenant_requests_total", "Requests handled, by stream and operation.")
	for _, t := range ts {
		treq.Add(float64(t.ingest.Requests), "stream", t.id, "op", "ingest")
		treq.Add(float64(t.query.Requests), "stream", t.id, "op", "query")
	}
	terr := e.Counter("streamkm_tenant_errors_total", "Requests answered with an error status, by stream and operation.")
	for _, t := range ts {
		terr.Add(float64(t.ingest.Errors), "stream", t.id, "op", "ingest")
		terr.Add(float64(t.query.Errors), "stream", t.id, "op", "query")
	}
	tpts := e.Counter("streamkm_tenant_ingest_points_total", "Points ingested, by stream.")
	for _, t := range ts {
		tpts.Add(float64(t.ingest.Items), "stream", t.id)
	}
	tlat := e.Histogram("streamkm_tenant_latency_seconds", "Request latency in seconds, by stream and operation.")
	for _, t := range ts {
		tlat.Add(t.ingest.Latency, "stream", t.id, "op", "ingest")
		tlat.Add(t.query.Latency, "stream", t.id, "op", "query")
	}
	serveProm(w, &e)
}
