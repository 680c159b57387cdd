package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamkm/internal/wire"
)

// BenchmarkIngestWire measures the HTTP ingest path's codec cost on both
// wire formats with clustering stubbed out (sinkClusterer), so the delta
// is purely parse + allocate: the overhead the binary columnar format
// exists to remove. Points/op equalized; compare ns/op and allocs/op
// across the sub-benchmarks.
func BenchmarkIngestWire(b *testing.B) {
	const (
		points = 500
		dim    = 54 // covtype's dimensionality, the repo's reference dataset
	)
	pts := make([][]float64, points)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = float64(i%7) + float64(j)*0.25
		}
		pts[i] = p
	}

	var nd bytes.Buffer
	enc := json.NewEncoder(&nd)
	for _, p := range pts {
		if err := enc.Encode(p); err != nil {
			b.Fatal(err)
		}
	}
	bin, err := wire.EncodeBatch(pts, nil)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, contentType string, body []byte) {
		srv, _ := newSinkServer(b, dim, 512)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(ts.URL+"/ingest", contentType, bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	}

	b.Run("ndjson", func(b *testing.B) { run(b, "application/x-ndjson", nd.Bytes()) })
	b.Run("binary", func(b *testing.B) { run(b, wire.ContentType, bin) })
}

// BenchmarkBinaryDecode isolates the codec itself (no HTTP): one batch
// decode per op, pooled buffers, the allocation budget the wire package
// promises (one coordinate block + pooled headers).
func BenchmarkBinaryDecode(b *testing.B) {
	pts := make([][]float64, 500)
	for i := range pts {
		p := make([]float64, 54)
		for j := range p {
			p[j] = float64(i) * 0.5
		}
		pts[i] = p
	}
	raw, err := wire.EncodeBatch(pts, nil)
	if err != nil {
		b.Fatal(err)
	}
	var pool wire.BufferPool
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := wire.Decode(raw, wire.Limits{}, &pool)
		if err != nil {
			b.Fatal(err)
		}
		pool.PutBatch(batch)
	}
}
