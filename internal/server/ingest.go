package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"streamkm/internal/registry"
)

// Ingest hardening defaults. A request is refused with 413 once its body
// exceeds the byte cap or carries more points than the point cap —
// before the excess is buffered or applied — so a single client cannot
// make the daemon read unboundedly. Both caps are configurable;
// a negative configured value disables the cap.
const (
	defaultMaxBodyBytes = 64 << 20 // 64 MiB per ingest request
	defaultMaxPoints    = 1 << 20  // ~1M points per ingest request
)

// resolveLimit maps a configured cap to its effective value: 0 selects
// the default, negative disables (0 means "no limit" internally).
func resolveLimit(v, def int64) int64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// limitBody wraps an ingest request body with http.MaxBytesReader when a
// byte cap applies; exceeding it surfaces as *http.MaxBytesError from
// the decoder and closes the connection after the 413.
func limitBody(w http.ResponseWriter, r *http.Request, max int64) io.Reader {
	if max <= 0 {
		return r.Body
	}
	return http.MaxBytesReader(w, r.Body, max)
}

// runIngest streams ndjson points out of body and applies them to b in
// batches of maxBatch points (one AddBatch — one shard-lock acquisition
// — per batch). checkDim vets every point's dimension. On any failure it
// stops, keeps what was already applied, and returns the HTTP status and
// message to report alongside the applied count; status 0 means the
// whole body was ingested.
func runIngest(body io.Reader, maxBatch int, maxPoints int64, b registry.Backend, checkDim func([]float64) error) (ingested int64, status int, msg string) {
	dec := json.NewDecoder(body)
	batch := make([][]float64, 0, maxBatch)
	flush := func() {
		if len(batch) > 0 {
			b.AddBatch(batch)
			ingested += int64(len(batch))
			batch = batch[:0]
		}
	}
	fail := func(st int, format string, args ...interface{}) (int64, int, string) {
		flush()
		return ingested, st, fmt.Sprintf(format, args...)
	}
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return fail(http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", mbe.Limit)
			}
			// Note: the applied count lives in the response's "ingested"
			// field; don't embed it in the message, it predates the flush.
			return fail(http.StatusBadRequest, "malformed ingest body: %v", err)
		}
		if maxPoints > 0 && ingested+int64(len(batch)) >= maxPoints {
			return fail(http.StatusRequestEntityTooLarge,
				"request exceeds %d points per request", maxPoints)
		}
		p, weight, err := parsePoint(raw)
		if err != nil {
			return fail(http.StatusBadRequest, "point %d: %v", ingested+int64(len(batch)), err)
		}
		if err := checkDim(p); err != nil {
			return fail(http.StatusBadRequest, "point %d: %v", ingested+int64(len(batch)), err)
		}
		if weight != 1 {
			flush()
			b.AddWeighted(p, weight)
			ingested++
			continue
		}
		batch = append(batch, p)
		if len(batch) == maxBatch {
			flush()
		}
	}
	flush()
	return ingested, 0, ""
}

// ingestValue is one ndjson value in an ingest body: either a bare JSON
// array (a unit-weight point) or an object {"p":[...],"w":2.5}. W is a
// pointer so an absent weight (default 1) is distinguishable from an
// explicit, invalid "w":0.
type ingestValue struct {
	P []float64 `json:"p"`
	W *float64  `json:"w"`
}

// parsePoint interprets one raw ingest value.
func parsePoint(raw json.RawMessage) ([]float64, float64, error) {
	i := 0
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\t' || raw[i] == '\n' || raw[i] == '\r') {
		i++
	}
	if i < len(raw) && raw[i] == '{' {
		var v ingestValue
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, 0, fmt.Errorf("malformed weighted point: %v", err)
		}
		w := 1.0
		if v.W != nil {
			w = *v.W
		}
		if w <= 0 {
			return nil, 0, fmt.Errorf("weight must be > 0, got %v", w)
		}
		if len(v.P) == 0 {
			return nil, 0, errors.New(`weighted point has empty "p"`)
		}
		return v.P, w, nil
	}
	var p []float64
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, 0, fmt.Errorf("expected a JSON array of coordinates: %v", err)
	}
	if len(p) == 0 {
		return nil, 0, errors.New("empty point")
	}
	return p, 1, nil
}
