package ring

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamkm"
	"streamkm/internal/persist"
	"streamkm/internal/registry"
	"streamkm/internal/server"
)

// testDaemon is one in-process daemon-equivalent: a streamkm-wired
// registry over its own data directory behind the multi-tenant HTTP
// layer — the same pairing cmd/streamkmd builds.
type testDaemon struct {
	name string
	dir  string
	reg  *registry.Registry
	ts   *httptest.Server
}

func streamkmRegistryAt(t testing.TB, dir string, maxResident int) *registry.Registry {
	t.Helper()
	base := streamkm.Config{BucketSize: 20, Seed: 7}
	cfg := registry.Config{
		DataDir:     dir,
		MaxResident: maxResident,
		Default:     registry.StreamConfig{Backend: "concurrent", Algo: "CC", K: 3},
		New: func(_ string, sc registry.StreamConfig) (registry.Backend, error) {
			return streamkm.Open(streamkm.SpecFromStreamConfig(sc, 2), base)
		},
		Restore: func(_ string, want registry.StreamConfig, r io.Reader) (registry.Backend, registry.StreamConfig, error) {
			b, err := streamkm.Restore(streamkm.SpecFromStreamConfig(want, 0), r, streamkm.Config{Seed: base.Seed})
			if err != nil {
				return nil, registry.StreamConfig{}, err
			}
			return b, b.Spec().StreamConfig(), nil
		},
		Peek: func(r io.Reader) (registry.StreamConfig, int64, error) {
			m, err := persist.PeekBackend(r)
			if err != nil {
				return registry.StreamConfig{}, 0, err
			}
			return registry.StreamConfig{
				Backend: m.Type, Algo: m.Algo, K: m.K, Dim: m.Dim,
				HalfLife: m.HalfLife, WindowN: m.WindowN,
				PointsPerSec: m.PointsPerSec, BytesPerSec: m.BytesPerSec,
				MaxResidentBytes: m.MaxResidentBytes,
			}, m.Count, nil
		},
	}
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func newTestDaemon(t testing.TB, name string, maxResident int) *testDaemon {
	t.Helper()
	dir := t.TempDir()
	d := &testDaemon{name: name, dir: dir}
	d.boot(t, maxResident)
	return d
}

// boot (re)creates the daemon's registry and server from its data dir.
func (d *testDaemon) boot(t testing.TB, maxResident int) {
	t.Helper()
	d.reg = streamkmRegistryAt(t, d.dir, maxResident)
	d.ts = httptest.NewServer(server.NewMulti(d.reg, server.MultiConfig{MaxBatch: 100}).Handler())
	t.Cleanup(d.ts.Close)
}

// killGraceful is the SIGTERM path: flush every resident stream to disk
// (streamkmd's final checkpoint), then stop serving and discard the
// process state.
func (d *testDaemon) killGraceful(t testing.TB) {
	t.Helper()
	if err := d.reg.CheckpointAll(); err != nil {
		t.Errorf("final checkpoint on %s: %v", d.name, err)
	}
	d.ts.CloseClientConnections()
	d.ts.Close()
}

// newTestProxy wires a router over the daemons and serves it.
func newTestProxy(t testing.TB, daemons ...*testDaemon) (*Proxy, *httptest.Server) {
	t.Helper()
	return newTestProxyCfg(t, ProxyConfig{}, daemons...)
}

// newTestProxyCfg is newTestProxy with a ProxyConfig override; Members
// and (when unset) Client are filled in from the daemons.
func newTestProxyCfg(t testing.TB, cfg ProxyConfig, daemons ...*testDaemon) (*Proxy, *httptest.Server) {
	t.Helper()
	members := make([]Member, len(daemons))
	for i, d := range daemons {
		members[i] = Member{Name: d.name, URL: d.ts.URL}
	}
	cfg.Members = members
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	p, err := NewProxy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts
}

// killHard is the kill -9 path: stop serving instantly with NO final
// checkpoint — in-memory state the last checkpoint missed is lost, as it
// would be on a real crash.
func (d *testDaemon) killHard(t testing.TB) {
	t.Helper()
	d.ts.CloseClientConnections()
	d.ts.Close()
}

// tenantPoints generates tenant i's well-separated 3-cluster mixture,
// deterministically, so reference clusterers can replay it exactly.
func tenantPoints(i, n int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(7000 + i)))
	base := float64(i * 40)
	centers := [][]float64{{base, 0}, {base + 400, 0}, {base, 400}}
	out := make([][]float64, n)
	for j := range out {
		c := centers[rng.Intn(len(centers))]
		out[j] = []float64{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
	}
	return out
}

func ndjsonBody(pts [][]float64) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, p := range pts {
		enc.Encode(p)
	}
	return b.String()
}

// ingestRetry posts one batch through the router, retrying transient
// refusals (503 mid-handoff, 502 daemon momentarily unreachable, 409
// detached) — the client contract the router's write-refusal window
// assumes. Fails the test after the deadline.
func ingestRetry(t testing.TB, client *http.Client, url string, pts [][]float64, deadline time.Duration) {
	t.Helper()
	var lastStatus int
	var lastBody string
	for start := time.Now(); time.Since(start) < deadline; {
		resp, err := client.Post(url, "application/x-ndjson", strings.NewReader(ndjsonBody(pts)))
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				return
			case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusConflict:
				lastStatus, lastBody = resp.StatusCode, string(raw)
			default:
				t.Fatalf("ingest %s: status %d: %s", url, resp.StatusCode, raw)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("ingest %s: still refused after %v (last status %d: %s)", url, deadline, lastStatus, lastBody)
}

// getJSON fetches and decodes a JSON response.
func getJSON(t testing.TB, client *http.Client, url string) (int, map[string]interface{}) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: not JSON: %v", url, err)
	}
	return resp.StatusCode, m
}

// queryCenters fetches a tenant's centers through any base URL and
// returns (count, centers).
func queryCenters(t testing.TB, client *http.Client, base, id string) (int64, [][]float64) {
	t.Helper()
	return centersAt(t, client, base+"/streams/"+id+"/centers", id)
}

// queryCentersRefresh forces a fresh recomputation (no cached centers) —
// what cost-equivalence comparisons should measure.
func queryCentersRefresh(t testing.TB, client *http.Client, base, id string) (int64, [][]float64) {
	t.Helper()
	return centersAt(t, client, base+"/streams/"+id+"/centers?refresh=1", id)
}

func centersAt(t testing.TB, client *http.Client, url, id string) (int64, [][]float64) {
	t.Helper()
	status, m := getJSON(t, client, url)
	if status != http.StatusOK {
		t.Fatalf("centers %s: status %d: %v", id, status, m)
	}
	raw := m["centers"].([]interface{})
	centers := make([][]float64, len(raw))
	for i, rc := range raw {
		cs := rc.([]interface{})
		centers[i] = make([]float64, len(cs))
		for j, x := range cs {
			centers[i][j] = x.(float64)
		}
	}
	return int64(m["count"].(float64)), centers
}

// kmeansCost is the summed squared distance of pts to their nearest
// center — the equivalence metric of the recovery test suites.
func kmeansCost(pts, centers [][]float64) float64 {
	var sum float64
	for _, p := range pts {
		best := math.Inf(1)
		for _, c := range centers {
			var d float64
			for i := range p {
				diff := p[i] - c[i]
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		sum += best
	}
	return sum
}

// referenceCost clusters pts on a fresh single-process backend with the
// test fleet's spec and returns the holdout cost — the single-daemon
// replay the acceptance criterion compares the fleet against.
func referenceCost(t testing.TB, pts [][]float64) float64 {
	t.Helper()
	b, err := streamkm.Open(streamkm.BackendSpec{Type: streamkm.BackendConcurrent, Algo: "CC", K: 3, Shards: 2},
		streamkm.Config{BucketSize: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b.AddBatch(pts)
	return kmeansCost(pts, b.CentersContext(context.Background()))
}

// mergedListing fetches the router's merged GET /streams and indexes it
// by tenant id.
func mergedListing(t testing.TB, client *http.Client, routerURL string) map[string]map[string]interface{} {
	t.Helper()
	status, m := getJSON(t, client, routerURL+"/streams")
	if status != http.StatusOK {
		t.Fatalf("merged listing status %d: %v", status, m)
	}
	out := map[string]map[string]interface{}{}
	for _, raw := range m["streams"].([]interface{}) {
		e := raw.(map[string]interface{})
		out[e["id"].(string)] = e
	}
	return out
}

// directStreamIDs lists the stream ids one daemon reports, bypassing the
// router.
func directStreamIDs(t testing.TB, d *testDaemon) []string {
	t.Helper()
	var ids []string
	for _, in := range d.reg.List() {
		ids = append(ids, in.ID)
	}
	return ids
}

// testDeadline bounds each retried client operation in the router tests.
const testDeadline = 15 * time.Second
