package server

import (
	"errors"
	"fmt"
	"mime"
	"net/http"

	"streamkm/internal/registry"
	"streamkm/internal/wire"
)

// This file is the binary half of the ingest content-type negotiation:
// POST /ingest and POST /streams/{id}/ingest accept either ndjson
// (application/x-ndjson and friends — the compatibility path) or one
// application/x-streamkm-batch body (internal/wire). The binary path
// decodes the whole batch — one flat coordinate allocation, one
// validation pass — before a single point is applied, so a malformed
// body can never partially ingest, and recycles its byte/header buffers
// through a wire.BufferPool after the shard hands off.

// isBinaryBatch reports whether the request negotiates the binary batch
// ingest format via its Content-Type.
func isBinaryBatch(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == wire.ContentType {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == wire.ContentType
}

// bodySizeHint picks the pooled-buffer size for reading an ingest body:
// the declared Content-Length when one is present (clamped to the byte
// cap — a lying header must not pre-allocate past it), else a small
// default the reader grows from.
func bodySizeHint(r *http.Request, maxBody int64) int {
	n := r.ContentLength
	if n <= 0 {
		return 64 << 10
	}
	if maxBody > 0 && n > maxBody {
		n = maxBody
	}
	return int(n)
}

// readBody drains an ingest request body into a pooled buffer, mapping
// an exceeded byte cap to 413. Return the buffer with pool.PutBytes once
// nothing references it.
func readBody(w http.ResponseWriter, r *http.Request, maxBody int64, pool *wire.BufferPool) (raw []byte, status int, msg string) {
	raw, err := wire.ReadAll(limitBody(w, r, maxBody), pool.GetBytes(bodySizeHint(r, maxBody)))
	if err == nil {
		return raw, 0, ""
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return raw, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)
	}
	return raw, http.StatusBadRequest, fmt.Sprintf("read ingest body: %v", err)
}

// decodeBinary parses a binary batch body, mapping decode failures onto
// the ingest endpoint's HTTP statuses (400 malformed, 413 over the point
// cap). maxPoints 0 means uncapped, as resolved by resolveLimit.
func decodeBinary(raw []byte, maxPoints int64, pool *wire.BufferPool) (*wire.Batch, int, string) {
	batch, err := wire.Decode(raw, wire.Limits{MaxPoints: maxPoints, MaxDim: registry.MaxDim}, pool)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, wire.ErrTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return nil, status, err.Error()
	}
	return batch, 0, ""
}

// applyBinary feeds an already-validated batch to b in AddBatch chunks
// of maxBatch points (one shard-lock acquisition per chunk). The batch
// was vetted end-to-end by the decoder, so unlike the ndjson path no
// failure after the dimension check can strand a partial request —
// either the dimension is wrong and nothing is applied, or every point
// lands.
func applyBinary(batch *wire.Batch, maxBatch int, b registry.Backend, checkDim func([]float64) error) (ingested int64, status int, msg string) {
	if batch.Len() == 0 {
		return 0, 0, ""
	}
	// One check covers the batch: the wire format fixes a single
	// dimension for every point in the header.
	if err := checkDim(batch.Points[0]); err != nil {
		return 0, http.StatusBadRequest, fmt.Sprintf("point 0: %v", err)
	}
	if batch.Weights != nil {
		for i, p := range batch.Points {
			b.AddWeighted(p, batch.Weights[i])
		}
		return int64(batch.Len()), 0, ""
	}
	for off := 0; off < batch.Len(); off += maxBatch {
		end := off + maxBatch
		if end > batch.Len() {
			end = batch.Len()
		}
		b.AddBatch(batch.Points[off:end])
		ingested += int64(end - off)
	}
	return ingested, 0, ""
}
