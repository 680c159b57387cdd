package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"streamkm"
	"streamkm/internal/registry"
)

// serveDefault hosts b as a Multi's default stream, materialized eagerly
// the way cmd/streamkmd boots its default stream, so the single-stream
// aliases (POST /ingest, GET /centers, GET/POST /snapshot) serve it.
// sc is the stream's configuration (k, dimension); regCfg supplies
// persistence (Files, DataDir) and gets its factories replaced.
func serveDefault(t testing.TB, b registry.Backend, sc registry.StreamConfig, regCfg registry.Config, cfg MultiConfig) *Multi {
	t.Helper()
	regCfg.Default = sc
	regCfg.New = func(id string, _ registry.StreamConfig) (registry.Backend, error) {
		if id != "default" {
			return nil, fmt.Errorf("only the default stream is served, not %q", id)
		}
		return b, nil
	}
	regCfg.Restore = func(string, registry.StreamConfig, io.Reader) (registry.Backend, registry.StreamConfig, error) {
		return nil, registry.StreamConfig{}, errors.New("restore is not served")
	}
	reg, err := registry.New(regCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.With("default", true, func(*registry.Stream, registry.Backend) error { return nil }); err != nil {
		t.Fatal(err)
	}
	return NewMulti(reg, cfg)
}

// newTestServer backs the default stream with a real
// streamkm.Concurrent — the production pairing — over a tiny
// configuration.
func newTestServer(t *testing.T, k, dim int) (*httptest.Server, *streamkm.Concurrent) {
	t.Helper()
	c, err := streamkm.NewConcurrent(streamkm.AlgoCC, 2, streamkm.Config{K: k, BucketSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	m := serveDefault(t, c, registry.StreamConfig{K: k, Dim: dim}, registry.Config{}, MultiConfig{MaxBatch: 64})
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts, c
}

func ndjson(n, dim int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte('[')
		for j := 0; j < dim; j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%.4f", rng.NormFloat64()*3+float64(10*(i%3)))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func postIngest(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("ingest response not JSON: %v", err)
	}
	return resp, m
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s: response not JSON: %v", url, err)
	}
	return resp, m
}

func TestIngestAndCenters(t *testing.T) {
	ts, c := newTestServer(t, 3, 0)
	resp, m := postIngest(t, ts, ndjson(600, 2, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %v", resp.StatusCode, m)
	}
	if m["ingested"].(float64) != 600 || m["count"].(float64) != 600 {
		t.Fatalf("ingest response %v", m)
	}
	if c.Count() != 600 {
		t.Fatalf("backend count %d", c.Count())
	}

	resp, m = getJSON(t, ts.URL+"/centers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("centers status %d", resp.StatusCode)
	}
	centers := m["centers"].([]interface{})
	if len(centers) != 3 {
		t.Fatalf("%d centers, want 3", len(centers))
	}
	if len(centers[0].([]interface{})) != 2 {
		t.Fatalf("center dim %d, want 2", len(centers[0].([]interface{})))
	}
	if m["k"].(float64) != 3 || m["count"].(float64) != 600 {
		t.Fatalf("centers response %v", m)
	}

	resp, m = getJSON(t, ts.URL+"/centers?refresh=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refresh status %d", resp.StatusCode)
	}
	if got := len(m["centers"].([]interface{})); got != 3 {
		t.Fatalf("refresh returned %d centers", got)
	}

	// refresh=0 must NOT force a recomputation: with the stream unchanged
	// it has to be served from the cache.
	hits0, misses0 := c.CacheStats()
	getJSON(t, ts.URL+"/centers?refresh=0")
	hits, misses := c.CacheStats()
	if hits != hits0+1 || misses != misses0 {
		t.Fatalf("refresh=0 bypassed the cache: hits %d->%d misses %d->%d", hits0, hits, misses0, misses)
	}
}

func TestIngestWeightedPoints(t *testing.T) {
	ts, c := newTestServer(t, 2, 0)
	body := "[1,2]\n{\"p\":[3,4],\"w\":2.5}\n{\"p\":[5,6]}\n"
	resp, m := postIngest(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, m)
	}
	if m["ingested"].(float64) != 3 {
		t.Fatalf("ingested %v, want 3", m["ingested"])
	}
	if c.Count() != 3 {
		t.Fatalf("count %d, want 3", c.Count())
	}
}

func TestIngestMalformedBody(t *testing.T) {
	ts, _ := newTestServer(t, 2, 0)
	for _, body := range []string{
		"[1,2]\nnot json\n",
		"[1,2]\n[\"a\",\"b\"]\n",
		"[]\n",
		"{\"p\":[],\"w\":2}\n",
		"{\"p\":[1,2],\"w\":-1}\n",
		"{\"p\":[1,2],\"w\":0}\n",
		"42\n",
	} {
		resp, m := postIngest(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400 (%v)", body, resp.StatusCode, m)
		}
		if _, ok := m["error"]; !ok {
			t.Errorf("body %q: no error field in %v", body, m)
		}
	}
}

func TestIngestPartialApplyOnError(t *testing.T) {
	ts, c := newTestServer(t, 2, 0)
	resp, m := postIngest(t, ts, "[1,2]\n[3,4]\nbogus\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if m["ingested"].(float64) != 2 {
		t.Fatalf("ingested %v, want the 2 valid points", m["ingested"])
	}
	if c.Count() != 2 {
		t.Fatalf("backend count %d, want 2", c.Count())
	}
}

func TestIngestDimensionMismatch(t *testing.T) {
	// Adopted dimension: first point fixes it.
	ts, _ := newTestServer(t, 2, 0)
	resp, m := postIngest(t, ts, "[1,2]\n[1,2,3]\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("adopted-dim mismatch: status %d", resp.StatusCode)
	}
	if !strings.Contains(m["error"].(string), "dimension mismatch") {
		t.Fatalf("error %q", m["error"])
	}

	// Configured dimension: rejected before anything is applied.
	ts2, c2 := newTestServer(t, 2, 5)
	resp, _ = postIngest(t, ts2, "[1,2]\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("configured-dim mismatch: status %d", resp.StatusCode)
	}
	if c2.Count() != 0 {
		t.Fatalf("mismatched point was applied")
	}
}

func TestCentersEmptyStream(t *testing.T) {
	ts, _ := newTestServer(t, 3, 0)
	resp, m := getJSON(t, ts.URL+"/centers")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := m["centers"].([]interface{}); len(got) != 0 {
		t.Fatalf("empty stream returned %d centers", len(got))
	}
}

func TestStats(t *testing.T) {
	ts, _ := newTestServer(t, 3, 0)
	postIngest(t, ts, ndjson(300, 4, 2))
	getJSON(t, ts.URL+"/centers")

	// Stream facts are per stream; endpoint counters are daemon-wide.
	resp, m := getJSON(t, ts.URL+"/streams/default/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if m["count"].(float64) != 300 || m["dim"].(float64) != 4 {
		t.Fatalf("stats %v", m)
	}
	if m["points_stored"].(float64) <= 0 || m["memory_mb"].(float64) <= 0 {
		t.Fatalf("memory stats %v", m)
	}
	if _, ok := m["centers_cache"]; !ok {
		t.Fatalf("no centers_cache in stats: %v", m)
	}

	resp, m = getJSON(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	eps := m["endpoints"].(map[string]interface{})
	ing := eps["ingest"].(map[string]interface{})
	if ing["requests"].(float64) != 1 || ing["items"].(float64) != 300 {
		t.Fatalf("ingest counters %v", ing)
	}
	cen := eps["centers"].(map[string]interface{})
	if cen["requests"].(float64) != 1 {
		t.Fatalf("centers counters %v", cen)
	}
}

func TestStatsCountsErrors(t *testing.T) {
	ts, _ := newTestServer(t, 2, 0)
	postIngest(t, ts, "bogus\n")
	_, m := getJSON(t, ts.URL+"/stats")
	ing := m["endpoints"].(map[string]interface{})["ingest"].(map[string]interface{})
	if ing["errors"].(float64) != 1 {
		t.Fatalf("ingest error counter %v", ing)
	}
}

// TestSnapshotEndpoints exercises the checkpoint surface: POST writes the
// default stream's file atomically and accounts it in /stats, GET streams
// the same state.
func TestSnapshotEndpoints(t *testing.T) {
	c, err := streamkm.NewConcurrent(streamkm.AlgoCC, 2, streamkm.Config{K: 2, BucketSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/state.snap"
	srv := serveDefault(t, c, registry.StreamConfig{K: 2},
		registry.Config{Files: map[string]string{"default": path}}, MultiConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postIngest(t, ts, ndjson(120, 3, 9))

	resp, err := http.Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot status %d: %v", resp.StatusCode, m)
	}
	if m["path"].(string) != path || m["bytes"].(float64) <= 0 || m["count"].(float64) != 120 {
		t.Fatalf("snapshot response %v", m)
	}

	// The written file and the GET stream both restore to the same state.
	restored, err := streamkm.NewConcurrentFromSnapshot(mustOpen(t, path), streamkm.Config{})
	if err != nil {
		t.Fatalf("restore written checkpoint: %v", err)
	}
	if restored.Count() != 120 {
		t.Fatalf("restored count %d", restored.Count())
	}
	get, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	if get.StatusCode != http.StatusOK || get.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("GET /snapshot status %d type %q", get.StatusCode, get.Header.Get("Content-Type"))
	}
	streamed, err := streamkm.NewConcurrentFromSnapshot(get.Body, streamkm.Config{})
	if err != nil {
		t.Fatalf("restore streamed snapshot: %v", err)
	}
	if streamed.Count() != 120 {
		t.Fatalf("streamed count %d", streamed.Count())
	}

	// Checkpoint counters surface in /stats.
	_, stats := getJSON(t, ts.URL+"/stats")
	ck := stats["checkpoint"].(map[string]interface{})
	if ck["written"].(float64) != 1 || ck["failed"].(float64) != 0 {
		t.Fatalf("checkpoint counters %v", ck)
	}
	if _, ok := stats["endpoints"].(map[string]interface{})["snapshot"]; !ok {
		t.Fatalf("no snapshot endpoint counters: %v", stats)
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestSnapshotWithoutPathIs400(t *testing.T) {
	ts, _ := newTestServer(t, 2, 0) // memory-only: no snapshot path
	for _, route := range []string{"/snapshot", "/streams/default/snapshot"} {
		resp, err := http.Post(ts.URL+route, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, 2, 0)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, 2, 0)
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/centers", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /centers: status %d, want 405", resp.StatusCode)
	}
}

// TestConcurrentTraffic drives parallel ingest and query requests through
// the full HTTP stack — run with -race to exercise the locking story end
// to end.
func TestConcurrentTraffic(t *testing.T) {
	ts, c := newTestServer(t, 3, 0)
	const producers = 4
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 5; b++ {
				resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson",
					strings.NewReader(ndjson(100, 3, int64(w*10+b))))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for q := 0; q < 2; q++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/centers")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(ts.URL + "/stats")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	qwg.Wait()

	if c.Count() != producers*5*100 {
		t.Fatalf("count %d, want %d", c.Count(), producers*5*100)
	}
	_, m := getJSON(t, ts.URL+"/centers?refresh=1")
	if got := len(m["centers"].([]interface{})); got != 3 {
		t.Fatalf("final centers %d, want 3", got)
	}
}
