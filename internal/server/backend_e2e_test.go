package server

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"streamkm/internal/registry"
)

// TestE2EBackendVariantsKillRestart mirrors the multi-tenant restart
// scenario for the non-default backends: tenants created with explicit
// decayed and windowed specs ingest traffic, hibernate under a resident
// cap, survive a daemon-equivalent kill/restart from the data directory
// alone, and come back with counts and clustering cost intact — the
// PR's acceptance criterion. Run with -race.
func TestE2EBackendVariantsKillRestart(t *testing.T) {
	const perTenant = 600
	dir := t.TempDir()
	regCfg := registry.Config{DataDir: dir, MaxResident: 2}
	reg := streamkmRegistry(t, regCfg)
	ts := httptest.NewServer(NewMulti(reg, MultiConfig{MaxBatch: 100}).Handler())

	tenants := []struct {
		id   string
		spec string
	}{
		{"dec-a", `{"backend":"decayed","algo":"CC","half_life":5000}`},
		{"dec-b", `{"backend":"decayed","algo":"RCC","k":4,"half_life":300}`},
		{"win-a", `{"backend":"windowed","window_n":100000}`},
		{"win-b", `{"backend":"windowed","k":4,"window_n":250}`},
		{"con-a", `{"backend":"concurrent","algo":"CC"}`},
	}
	for _, tn := range tenants {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/streams/"+tn.id, strings.NewReader(tn.spec))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", tn.id, resp.StatusCode)
		}
	}

	tenantPoints := func(i int) [][]float64 {
		rng := rand.New(rand.NewSource(int64(4000 + i)))
		base := float64(i * 50)
		centers := [][]float64{{base, 0}, {base + 400, 0}, {base, 400}}
		out := make([][]float64, perTenant)
		for j := range out {
			c := centers[rng.Intn(len(centers))]
			out[j] = []float64{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()}
		}
		return out
	}
	for i, tn := range tenants {
		pts := tenantPoints(i)
		for off := 0; off < len(pts); off += 100 {
			resp, err := ts.Client().Post(ts.URL+"/streams/"+tn.id+"/ingest",
				"application/x-ndjson", strings.NewReader(pointsNDJSON(pts[off:off+100])))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s ingest status %d", tn.id, resp.StatusCode)
			}
		}
	}

	// With MaxResident 2 and 5 tenants, hibernation churned during
	// ingest; every variant must have survived at least one
	// hibernate/restore round trip by the time we query it.
	if reg.Stats().Registry.Evictions == 0 {
		t.Fatal("no evictions: the cap did not exercise hibernation")
	}

	queryTenant := func(srvURL, id string, pts [][]float64) (int64, float64) {
		resp, m := getJSON(t, srvURL+"/streams/"+id+"/centers")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s centers status %d: %v", id, resp.StatusCode, m)
		}
		raw := m["centers"].([]interface{})
		centers := make([][]float64, len(raw))
		for ci, rc := range raw {
			cs := rc.([]interface{})
			centers[ci] = make([]float64, len(cs))
			for j, x := range cs {
				centers[ci][j] = x.(float64)
			}
		}
		return int64(m["count"].(float64)), kmeansCost(pts, centers)
	}

	// Pre-restart reference. For win-b (window 250 < perTenant) the cost
	// is still measured against the window's tail, which the restart must
	// preserve like everything else.
	refPts := func(i int) [][]float64 {
		pts := tenantPoints(i)
		if tenants[i].id == "win-b" {
			return pts[len(pts)-250:]
		}
		return pts
	}
	preCost := make([]float64, len(tenants))
	for i, tn := range tenants {
		count, cost := queryTenant(ts.URL, tn.id, refPts(i))
		if count != perTenant {
			t.Fatalf("%s count %d, want %d", tn.id, count, perTenant)
		}
		preCost[i] = cost
	}

	// Spec reporting: per-stream stats carry the backend spec.
	resp, m := getJSON(t, ts.URL+"/streams/dec-b/stats")
	if resp.StatusCode != http.StatusOK || m["backend"] != "decayed" ||
		m["half_life"].(float64) != 300 || m["k"].(float64) != 4 {
		t.Fatalf("dec-b stats: %v", m)
	}
	resp, m = getJSON(t, ts.URL+"/streams/win-b/stats")
	if resp.StatusCode != http.StatusOK || m["backend"] != "windowed" ||
		m["window_n"].(float64) != 250 {
		t.Fatalf("win-b stats: %v", m)
	}

	// Kill and restart from the data directory alone.
	if err := reg.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	reg2 := streamkmRegistry(t, regCfg)
	ts2 := httptest.NewServer(NewMulti(reg2, MultiConfig{MaxBatch: 100}).Handler())
	defer ts2.Close()

	st := reg2.Stats()
	if st.Streams != len(tenants) || st.Resident != 0 {
		t.Fatalf("restart: %d streams / %d resident, want %d / 0", st.Streams, st.Resident, len(tenants))
	}
	// The boot scan peeked every variant's spec without warming it.
	for _, tn := range tenants {
		in, err := reg2.Stat(tn.id)
		if err != nil {
			t.Fatal(err)
		}
		wantBackend := "concurrent"
		if strings.HasPrefix(tn.id, "dec") {
			wantBackend = "decayed"
		} else if strings.HasPrefix(tn.id, "win") {
			wantBackend = "windowed"
		}
		if in.Backend != wantBackend || in.Count != perTenant {
			t.Fatalf("%s boot peek: backend %q count %d, want %q / %d",
				tn.id, in.Backend, in.Count, wantBackend, perTenant)
		}
	}
	for i, tn := range tenants {
		count, cost := queryTenant(ts2.URL, tn.id, refPts(i))
		if count != perTenant {
			t.Errorf("%s count after restart %d, want %d", tn.id, count, perTenant)
		}
		if cost > 2*preCost[i] || preCost[i] > 2*cost {
			t.Errorf("%s cost after restart %v vs %v", tn.id, cost, preCost[i])
		}
	}

	// The windowed tenant keeps expiring after the restart: flood win-b
	// with a shifted cluster longer than its window and the old clusters
	// vanish from its answers.
	shift := make([][]float64, 600)
	rng := rand.New(rand.NewSource(99))
	for j := range shift {
		shift[j] = []float64{9000 + rng.NormFloat64(), 9000 + rng.NormFloat64()}
	}
	for off := 0; off < len(shift); off += 100 {
		resp, err := ts2.Client().Post(ts2.URL+"/streams/win-b/ingest",
			"application/x-ndjson", strings.NewReader(pointsNDJSON(shift[off:off+100])))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	_, m = getJSON(t, ts2.URL+"/streams/win-b/centers")
	for _, rc := range m["centers"].([]interface{}) {
		x := rc.([]interface{})[0].(float64)
		if x < 5000 {
			t.Fatalf("win-b center at %v after window slid past the old clusters", x)
		}
	}
}

// TestE2EBackendMismatchOnRestore: a snapshot file that appears on disk
// for an id later PUT with a different spec must be refused on access,
// not silently resumed.
func TestE2EBackendMismatchOnRestore(t *testing.T) {
	dir := t.TempDir()
	reg := streamkmRegistry(t, registry.Config{DataDir: dir})
	ts := httptest.NewServer(NewMulti(reg, MultiConfig{}).Handler())

	// Create a decayed stream, feed it, checkpoint it, delete only the
	// in-memory registration path by restarting with a registry whose
	// boot scan is bypassed for this id (simulated: PUT under a new
	// registry after moving the snapshot into place post-boot).
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/streams/ghost",
		strings.NewReader(`{"backend":"decayed","half_life":100}`))
	if resp, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := ts.Client().Post(ts.URL+"/streams/ghost/ingest", "application/x-ndjson",
		strings.NewReader(pointsNDJSON([][]float64{{1, 2}, {3, 4}})))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, _, err := reg.Checkpoint("ghost"); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	// Fresh registry over an empty dir, then the old snapshot "appears"
	// (bootScan never saw it). A PUT declaring a windowed spec for the
	// same id must fail on materialization instead of adopting the
	// decayed file.
	dir2 := t.TempDir()
	reg2 := streamkmRegistry(t, registry.Config{DataDir: dir2})
	ts2 := httptest.NewServer(NewMulti(reg2, MultiConfig{}).Handler())
	defer ts2.Close()
	if err := copyFile(t, dir+"/ghost.snap", dir2+"/ghost.snap"); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodPut, ts2.URL+"/streams/ghost",
		strings.NewReader(`{"backend":"windowed","window_n":500}`))
	resp, err = ts2.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		t.Fatal("PUT adopted a snapshot with a conflicting backend spec")
	}
}

func copyFile(t *testing.T, src, dst string) error {
	t.Helper()
	in, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, in, 0o644)
}

// TestPUTValidation is the 400-bugfix satellite: absurd stream configs
// must be rejected as client errors with a JSON body, both on explicit
// PUT and on lazy creation, never surfacing as a 500 from the backend
// constructor.
func TestPUTValidation(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{}, MultiConfig{})
	cases := []string{
		`{"k":-1}`,
		`{"k":0,"dim":-2}`,
		`{"dim":1048577}`,
		`{"k":1048577}`,
		`{"backend":"decayed"}`,                // missing half_life
		`{"backend":"windowed"}`,               // missing window_n
		`{"backend":"bogus"}`,                  // unknown variant
		`{"backend":"windowed","window_n":-5}`, // negative knob
		`{"backend":"decayed","half_life":100,"window_n":500}`, // stray knob
		`{"half_life":100}`, // knob without its variant
	}
	for _, body := range cases {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/streams/bad", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]interface{}
		decodeJSON(t, resp, &m)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT %s: status %d, want 400 (body %v)", body, resp.StatusCode, m)
		}
		if _, ok := m["error"].(string); !ok {
			t.Errorf("PUT %s: no JSON error field: %v", body, m)
		}
	}
	// None of the rejected PUTs registered a stream.
	resp, m := getJSON(t, ts.URL+"/streams/bad/stats")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rejected PUT left a registered stream: %d %v", resp.StatusCode, m)
	}
}

// TestLazyCreateValidation: a registry whose default config is absurd
// rejects lazy creation with a client error instead of registering a
// stream that can never build.
func TestLazyCreateValidation(t *testing.T) {
	ts, _ := newMultiServer(t, registry.Config{
		Default: registry.StreamConfig{Algo: "CC", K: -3},
	}, MultiConfig{})
	resp, err := ts.Client().Post(ts.URL+"/streams/lazy/ingest", "application/x-ndjson",
		strings.NewReader(pointsNDJSON([][]float64{{1, 2}})))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	decodeJSON(t, resp, &m)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lazy create with k=-3: status %d, want 400 (%v)", resp.StatusCode, m)
	}
	if resp, _ := getJSON(t, ts.URL+"/streams/lazy/stats"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("invalid lazy create left a registered stream")
	}
}
