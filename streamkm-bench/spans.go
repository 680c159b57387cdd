package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"streamkm/internal/trace"
)

// clientSpan is the benchmark's own span around one HTTP call. Its
// trace and span ids travel to the daemon in a W3C traceparent header,
// so the daemon's span for the same request names it as parent and the
// two can be joined afterwards.
type clientSpan struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Op      string `json:"op"`
	Tenant  string `json:"tenant"`
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_unix_ns"`
	EndNs   int64  `json:"end_unix_ns"`
	Status  int    `json:"status"`
	// Hit is set on plain centers queries: the response repeated the
	// tenant's previous centers exactly, so the daemon's cache served it.
	Hit bool `json:"hit,omitempty"`
}

// spanLog collects client spans from every connection worker.
type spanLog struct {
	mu    sync.Mutex
	spans []clientSpan
}

func (l *spanLog) add(s clientSpan) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) reset() {
	l.mu.Lock()
	l.spans = nil
	l.mu.Unlock()
}

func (l *spanLog) all() []clientSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]clientSpan(nil), l.spans...)
}

// newTraceparent mints ids for one client span and renders the header.
func newTraceparent() (traceID, spanID, header string) {
	tid, sid := trace.NewTraceID(), trace.NewSpanID()
	return tid.String(), sid.String(), trace.Format(tid, sid, 0x01)
}

// interval is a closed-open time interval in unix nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the parent's duration minus the part of it that the union
// of its children covers. Children may overlap each other and may stick
// out of the parent; only the covered share of the parent counts.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			cs = append(cs, interval{s, e})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var curS, curE int64
	open := false
	for _, c := range cs {
		if open && c.start <= curE {
			curE = max(curE, c.end)
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = c.start, c.end, true
	}
	if open {
		covered += curE - curS
	}
	return (parent.end - parent.start) - covered
}

// stageParent records how the daemon's stage timers nest. Stages carry
// durations but no start times; every stage not listed here is a direct
// child of the request span, and siblings run one after another.
var stageParent = map[string]string{
	"shard-merge": "coreset-recompute",
}

// stageSelf returns each stage's self time (its duration minus its
// nested stages) and the span's own self time (duration minus its
// top-level stages), all in ms.
func stageSelf(d trace.SpanData) (stages map[string]float64, spanSelf float64) {
	stages = make(map[string]float64, len(d.Stages))
	for _, st := range d.Stages {
		stages[st.Name] += st.Ms
	}
	spanSelf = d.DurMs
	for _, st := range d.Stages {
		if p, nested := stageParent[st.Name]; nested {
			if _, ok := stages[p]; ok {
				stages[p] -= st.Ms
				continue
			}
		}
		spanSelf -= st.Ms
	}
	return stages, spanSelf
}

func stageMs(d trace.SpanData, name string) (float64, bool) {
	var ms float64
	found := false
	for _, st := range d.Stages {
		if st.Name == name {
			ms += st.Ms
			found = true
		}
	}
	return ms, found
}

// joinedSpan is a client span with the daemon span it caused, if the
// daemon's ring still held it when the benchmark pulled.
type joinedSpan struct {
	Client clientSpan      `json:"client"`
	Daemon *trace.SpanData `json:"daemon,omitempty"`
}

// joinSpans matches client spans to daemon spans by trace id, requiring
// the daemon span to name the client span as its parent. Client spans
// whose daemon span was evicted from the ring before a pull stay
// unjoined; coverage is the joined share.
func joinSpans(clients []clientSpan, daemon map[string]trace.SpanData) ([]joinedSpan, float64) {
	out := make([]joinedSpan, len(clients))
	joined := 0
	for i, c := range clients {
		out[i].Client = c
		if d, ok := daemon[c.TraceID]; ok && d.ParentID == c.SpanID {
			d := d
			out[i].Daemon = &d
			joined++
		}
	}
	if len(clients) == 0 {
		return out, 0
	}
	return out, float64(joined) / float64(len(clients))
}

// tracePuller polls GET /debug/traces?limit=0 while a traced phase runs,
// keeping every span it has seen by trace id. The daemon's ring holds
// only the most recent 2048 spans, so a request whose span was evicted
// between two pulls is lost; coverage reports how many.
type tracePuller struct {
	base  string
	hc    *http.Client
	every time.Duration

	mu    sync.Mutex
	spans map[string]trace.SpanData
	err   error

	stop chan struct{}
	done chan struct{}
}

func startTracePuller(base string, every time.Duration) *tracePuller {
	p := &tracePuller{
		base: base, every: every,
		hc:    &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}},
		spans: make(map[string]trace.SpanData),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.pull()
				return
			case <-t.C:
				p.pull()
			}
		}
	}()
	return p
}

func (p *tracePuller) pull() {
	resp, err := p.hc.Get(p.base + "/debug/traces?limit=0")
	if err != nil {
		p.setErr(err)
		return
	}
	defer resp.Body.Close()
	var body struct {
		Spans []trace.SpanData `json:"spans"`
	}
	if resp.StatusCode != http.StatusOK {
		p.setErr(fmt.Errorf("GET /debug/traces: status %d", resp.StatusCode))
		return
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		p.setErr(fmt.Errorf("decode /debug/traces: %w", err))
		return
	}
	p.mu.Lock()
	for _, d := range body.Spans {
		p.spans[d.TraceID] = d
	}
	p.mu.Unlock()
}

func (p *tracePuller) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// finish takes a last pull, stops the poller and returns what it holds.
func (p *tracePuller) finish() (map[string]trace.SpanData, error) {
	close(p.stop)
	<-p.done
	p.hc.CloseIdleConnections()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spans, p.err
}

// layerTimes reduces joined spans to the per-layer figures the traced
// run reports. Every value is a median over the spans where the layer
// ran, in the unit its name states; absent layers read 0. Centers
// figures cover plain queries, not forced refreshes.
func layerTimes(js []joinedSpan) map[string]float64 {
	var (
		apply, decode, bodyRead, lockWait           []float64
		ingestDur, centersDur, ingestSelf, centSelf []float64
		hitUs, missMs, merge, net                   []float64
	)
	for _, j := range js {
		d := j.Daemon
		if d == nil {
			continue
		}
		_, self := stageSelf(*d)
		if v, ok := stageMs(*d, "lock-wait"); ok {
			lockWait = append(lockWait, v)
		}
		switch j.Client.Op {
		case opIngest.String():
			ingestDur = append(ingestDur, d.DurMs)
			ingestSelf = append(ingestSelf, self)
			if v, ok := stageMs(*d, "cluster-apply"); ok {
				apply = append(apply, v)
			}
			if v, ok := stageMs(*d, "wire-decode"); ok {
				decode = append(decode, v)
			}
			if v, ok := stageMs(*d, "body-read"); ok {
				bodyRead = append(bodyRead, v)
			}
		case opQuery.String():
			if v, ok := stageMs(*d, "shard-merge"); ok {
				merge = append(merge, v)
			}
			centersDur = append(centersDur, d.DurMs)
			centSelf = append(centSelf, self)
			net = append(net, float64(selfTime(
				interval{j.Client.StartNs, j.Client.EndNs},
				[]interval{{d.StartUnixNs, d.StartUnixNs + int64(d.DurMs*1e6)}},
			))/1e6)
			if rec, ok := stageMs(*d, "coreset-recompute"); ok {
				if j.Client.Hit {
					hitUs = append(hitUs, rec*1e3)
				} else {
					missMs = append(missMs, rec)
				}
			}
		}
	}
	lw50, lw99 := median(lockWait), 0.0
	if t, err := tailPercentile(lockWait); err == nil {
		lw99 = t.Value
	}
	return map[string]float64{
		"streamkm.apply_ms":         median(apply),
		"wire.decode_ms":            median(decode),
		"server.body_read_ms":       median(bodyRead),
		"registry.lock_wait_p50_ms": lw50,
		"registry.lock_wait_p99_ms": lw99,
		"server.ingest_ms":          median(ingestDur),
		"server.centers_ms":         median(centersDur),
		"server.ingest_self_ms":     median(ingestSelf),
		"server.centers_self_ms":    median(centSelf),
		"streamkm.hit_us":           median(hitUs),
		"streamkm.miss_ms":          median(missMs),
		"decay.shard_merge_ms":      median(merge),
		"bench.net_ms":              median(net),
	}
}

// writeSpans dumps the joined spans of a traced run as JSON.
func writeSpans(path string, js []joinedSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, j := range js {
		if err := enc.Encode(j); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	return f.Close()
}
