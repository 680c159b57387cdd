// Command streamkmd is the streaming k-means daemon: one process serving
// concurrent ingest and clustering-query traffic for many independent
// streams over HTTP. Per-stream state is a coreset — polylogarithmic in
// the stream, the paper's central smallness result — so tenant density
// is the point: thousands of streams fit one daemon, and the ones that
// do not fit in RAM hibernate to disk at zero cost to their data.
//
// Usage:
//
//	streamkmd -addr :7070 -algo CC -k 10 -shards 8 \
//	          -data-dir /var/lib/streamkmd -max-streams 256 -stream-ttl 10m
//
// Multi-tenant API (streams are created lazily on first ingest):
//
//	printf '[1,2]\n[9,9]\n' | curl -sS --data-binary @- localhost:7070/streams/alice/ingest
//	curl -sS localhost:7070/streams/alice/centers
//	curl -sS localhost:7070/streams/alice/stats
//	curl -sS localhost:7070/streams                     # list all tenants
//	curl -sS -X PUT localhost:7070/streams/bob -d '{"algo":"RCC","k":20}'
//	curl -sS -X DELETE localhost:7070/streams/bob
//	curl -sS localhost:7070/stats                       # registry-wide stats
//
// Each tenant picks its clustering backend in the PUT body: "concurrent"
// (infinite stream — the default), "decayed" (forward exponential decay
// with the given half_life in points, or half_life_seconds of wall-clock
// time) or "windowed" (a hard sliding window over the last window_n
// points). Every variant ingests through -shards parallel lanes:
//
//	curl -sS -X PUT localhost:7070/streams/ads \
//	     -d '{"backend":"decayed","k":20,"half_life":10000}'
//	curl -sS -X PUT localhost:7070/streams/iot \
//	     -d '{"backend":"decayed","k":20,"half_life_seconds":3600}'
//	curl -sS -X PUT localhost:7070/streams/fraud \
//	     -d '{"backend":"windowed","k":10,"window_n":100000}'
//
// -backend (with -half-life / -half-life-seconds / -window) selects the
// default-stream spec for lazily created tenants. All variants
// checkpoint and restore through the same snapshot machinery; a
// snapshot that disagrees with the declared spec refuses to restore.
//
// The pre-registry single-stream endpoints (POST /ingest, GET /centers,
// GET/POST /snapshot) keep working as aliases for the default stream
// (-default-stream, "default" by default), so existing clients and the
// legacy -checkpoint flag are unaffected. With -checkpoint but no
// -data-dir, only the default stream persists: other streams still
// serve, but are memory-only and do not survive a restart.
//
// With -data-dir set, every stream checkpoints to <dir>/<id>.snap: the
// whole directory is re-registered on boot (cold — streams restore
// lazily on first access), the -checkpoint-interval ticker persists
// dirty streams and hibernates ones idle past -stream-ttl, and a final
// checkpoint runs during graceful shutdown. -max-streams bounds how many
// backends are resident at once; the least-recently-used stream beyond
// the bound is checkpointed to its file and dropped from RAM, then
// restored transparently on its next request. Checkpoint writes are
// atomic (temp file + fsync + rename); a crash mid-write never corrupts
// the previous checkpoint.
//
// Observability: logs are structured JSON (log/slog) on stderr. Every
// request runs in a span (W3C traceparent joined when the header is
// present and valid, minted otherwise) with per-stage latency timers;
// GET /debug/traces serves the bounded in-memory ring of recent and
// slowest spans. -slow-request D emits one WARN record per request at
// or over D, naming the dominant stage. -debug-addr serves
// net/http/pprof on its own listener, never on the serving mux. See
// the internal/server package documentation for the full contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"streamkm"
	"streamkm/internal/persist"
	"streamkm/internal/registry"
	"streamkm/internal/server"
)

// options carries the flag values; split from main for testability.
type options struct {
	addr          string
	backend       string
	algo          string
	k             int
	shards        int
	dim           int
	bucket        int
	alpha         float64
	halfLife      float64
	halfLifeSecs  float64
	windowN       int64
	seed          int64
	runs          int
	lloyd         int
	maxBatch      int
	maxBody       int64
	maxPoints     int64
	checkpoint    string
	ckptInterval  time.Duration
	dataDir       string
	maxStreams    int
	streamTTL     time.Duration
	defaultStream string
	slowRequest   time.Duration
	debugAddr     string

	pointsPerSec   float64
	bytesPerSec    float64
	maxResBytes    int64
	thrashRestores int
	thrashWindow   time.Duration
}

// persistent reports whether any state reaches disk.
func (o options) persistent() bool { return o.checkpoint != "" || o.dataDir != "" }

// build wires options into a running-ready registry + server pair. The
// default stream is materialized eagerly — restored from its checkpoint
// when one exists — so configuration errors and flag/checkpoint
// mismatches are boot errors, never a silently wrong model.
func build(o options) (*registry.Registry, *server.Multi, error) {
	if o.shards < 1 {
		o.shards = runtime.GOMAXPROCS(0)
	}
	if o.backend == "" {
		o.backend = string(streamkm.BackendConcurrent)
	}
	if o.defaultStream == "" {
		o.defaultStream = "default"
	}
	if err := registry.ValidateID(o.defaultStream); err != nil {
		return nil, nil, err
	}
	base := streamkm.Config{
		BucketSize:      o.bucket,
		Alpha:           o.alpha,
		Seed:            o.seed,
		QueryRuns:       o.runs,
		QueryLloydIters: o.lloyd,
	}
	var files map[string]string
	if o.checkpoint != "" {
		// Legacy single-file checkpoint: it is simply the default
		// stream's per-stream snapshot path.
		files = map[string]string{o.defaultStream: o.checkpoint}
	}
	reg, err := registry.New(registry.Config{
		MaxResident: o.maxStreams,
		TTL:         o.streamTTL,
		DataDir:     o.dataDir,
		Files:       files,
		Default: registry.StreamConfig{
			Backend: o.backend, Algo: o.algo, K: o.k, Dim: o.dim,
			HalfLife: o.halfLife, HalfLifeSeconds: o.halfLifeSecs, WindowN: o.windowN,
			PointsPerSec: o.pointsPerSec, BytesPerSec: o.bytesPerSec,
			MaxResidentBytes: o.maxResBytes,
		},
		ThrashRestores: o.thrashRestores,
		ThrashWindow:   o.thrashWindow,
		New: func(_ string, sc registry.StreamConfig) (registry.Backend, error) {
			return streamkm.Open(streamkm.SpecFromStreamConfig(sc, o.shards), base)
		},
		Restore: func(_ string, want registry.StreamConfig, r io.Reader) (registry.Backend, registry.StreamConfig, error) {
			b, err := streamkm.Restore(streamkm.SpecFromStreamConfig(want, 0), r, streamkm.Config{
				Seed:            base.Seed,
				Alpha:           base.Alpha,
				QueryRuns:       base.QueryRuns,
				QueryLloydIters: base.QueryLloydIters,
			})
			if err != nil {
				return nil, registry.StreamConfig{}, err
			}
			return b, b.Spec().StreamConfig(), nil
		},
		Peek: func(r io.Reader) (registry.StreamConfig, int64, error) {
			meta, err := persist.PeekBackend(r)
			if err != nil {
				return registry.StreamConfig{}, 0, err
			}
			return registry.StreamConfig{
				Backend: meta.Type, Algo: meta.Algo, K: meta.K, Dim: meta.Dim,
				HalfLife: meta.HalfLife, HalfLifeSeconds: meta.HalfLifeSeconds, WindowN: meta.WindowN,
				PointsPerSec: meta.PointsPerSec, BytesPerSec: meta.BytesPerSec,
				MaxResidentBytes: meta.MaxResidentBytes,
			}, meta.Count, nil
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := reg.With(o.defaultStream, true, func(s *registry.Stream, _ registry.Backend) error {
		return validateDefault(o, s)
	}); err != nil {
		return nil, nil, err
	}
	if o.persistent() {
		// Write a checkpoint immediately: an unwritable location must be
		// a boot error, not a string of ignored ticker failures that void
		// the durability promise on the first kill.
		if _, _, err := reg.Checkpoint(o.defaultStream); err != nil {
			return nil, nil, fmt.Errorf("checkpoint not writable: %w", err)
		}
	}
	srv := server.NewMulti(reg, server.MultiConfig{
		DefaultStream: o.defaultStream,
		MaxBatch:      o.maxBatch,
		MaxBodyBytes:  o.maxBody,
		MaxPoints:     o.maxPoints,
		SlowRequest:   o.slowRequest,
	})
	return reg, srv, nil
}

// debugMux builds the pprof-only mux served on -debug-addr. The profiles
// are deliberately kept off the serving mux: exposing them on the data
// port would let any tenant trigger CPU profiling of the daemon.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// validateDefault cross-checks the materialized default stream against
// the flags: resuming a CC/k=10 checkpoint into a daemon configured for
// RCC/k=20 — or a concurrent checkpoint into a daemon configured for a
// windowed default — would silently answer wrong queries, so mismatches
// are boot errors. Fresh streams inherit the flags and pass trivially.
func validateDefault(o options, s *registry.Stream) error {
	cfg := s.Config()
	if cfg.Backend != o.backend {
		return fmt.Errorf("checkpoint backend %s does not match -backend %s", cfg.Backend, o.backend)
	}
	if cfg.Algo != o.algo && cfg.Backend != string(streamkm.BackendWindowed) {
		return fmt.Errorf("checkpoint algo %s does not match -algo %s", cfg.Algo, o.algo)
	}
	if cfg.K != o.k {
		return fmt.Errorf("checkpoint k=%d does not match -k %d", cfg.K, o.k)
	}
	if cfg.HalfLife != o.halfLife && cfg.Backend == string(streamkm.BackendDecayed) {
		return fmt.Errorf("checkpoint half-life %v does not match -half-life %v", cfg.HalfLife, o.halfLife)
	}
	if cfg.HalfLifeSeconds != o.halfLifeSecs && cfg.Backend == string(streamkm.BackendDecayed) {
		return fmt.Errorf("checkpoint wall-clock half-life %v does not match -half-life-seconds %v", cfg.HalfLifeSeconds, o.halfLifeSecs)
	}
	if cfg.WindowN != o.windowN && cfg.Backend == string(streamkm.BackendWindowed) {
		return fmt.Errorf("checkpoint window %d does not match -window %d", cfg.WindowN, o.windowN)
	}
	if o.dim > 0 && s.Dim() > 0 && s.Dim() != o.dim {
		return fmt.Errorf("checkpoint dimension %d does not match -dim %d", s.Dim(), o.dim)
	}
	s.AdoptDim(o.dim)
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7070", "listen address")
	flag.StringVar(&o.backend, "backend", "concurrent", "default-stream backend variant (concurrent, decayed, windowed); tenants override per stream via PUT")
	flag.StringVar(&o.algo, "algo", "CC", "summary structure per shard (CT, CC, RCC)")
	flag.IntVar(&o.k, "k", 10, "number of cluster centers")
	flag.IntVar(&o.shards, "shards", 0, "ingest shards per stream (0 = GOMAXPROCS)")
	flag.IntVar(&o.dim, "dim", 0, "point dimension (0 = adopt from first point, per stream)")
	flag.IntVar(&o.bucket, "bucket", 0, "coreset bucket size m (0 = 20*k)")
	flag.Float64Var(&o.alpha, "alpha", 0, "centers-cache staleness threshold (>1; 0 = default 1.2)")
	flag.Float64Var(&o.halfLife, "half-life", 0, "decay half-life in points for -backend decayed (mutually exclusive with -half-life-seconds)")
	flag.Float64Var(&o.halfLifeSecs, "half-life-seconds", 0, "decay half-life in wall-clock seconds for -backend decayed (mutually exclusive with -half-life)")
	flag.Int64Var(&o.windowN, "window", 0, "sliding-window length in points for -backend windowed")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.runs, "queryruns", 1, "k-means++ restarts per query recomputation")
	flag.IntVar(&o.lloyd, "lloyd", 0, "Lloyd refinement iterations per query recomputation")
	flag.IntVar(&o.maxBatch, "maxbatch", 0, "points applied per shard-lock acquisition during ingest (0 = 512)")
	flag.Int64Var(&o.maxBody, "max-body", 0, "max ingest request body bytes, 413 beyond (0 = 64MiB, -1 = unlimited)")
	flag.Int64Var(&o.maxPoints, "max-points", 0, "max points per ingest request, 413 beyond (0 = ~1M, -1 = unlimited)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "default stream's checkpoint file: restore on boot, write on ticker and shutdown")
	flag.DurationVar(&o.ckptInterval, "checkpoint-interval", time.Minute, "interval between periodic checkpoints and TTL sweeps (needs -checkpoint or -data-dir; 0 disables the ticker)")
	flag.StringVar(&o.dataDir, "data-dir", "", "per-stream checkpoint directory (<id>.snap): restore all on boot, hibernate cold streams into it")
	flag.IntVar(&o.maxStreams, "max-streams", 0, "max streams resident in RAM; LRU beyond this hibernates to -data-dir (0 = unbounded)")
	flag.DurationVar(&o.streamTTL, "stream-ttl", 0, "hibernate streams idle longer than this to -data-dir (0 = never)")
	flag.StringVar(&o.defaultStream, "default-stream", "default", "stream served by the legacy single-stream endpoints")
	flag.Float64Var(&o.pointsPerSec, "points-per-sec", 0, "default per-stream ingest quota in points/sec, 429 beyond (0 = unlimited; tenants override per stream via PUT)")
	flag.Float64Var(&o.bytesPerSec, "bytes-per-sec", 0, "default per-stream ingest quota in body bytes/sec, 429 beyond (0 = unlimited)")
	flag.Int64Var(&o.maxResBytes, "max-resident-bytes", 0, "default per-stream cap on resident stored-point bytes, 429 beyond (0 = unlimited)")
	flag.IntVar(&o.thrashRestores, "thrash-restores", 0, "shed accesses with 429 once a stream restores this many times within -thrash-window (0 = never shed)")
	flag.DurationVar(&o.thrashWindow, "thrash-window", time.Minute, "window for -thrash-restores churn detection")
	flag.DurationVar(&o.slowRequest, "slow-request", 0, "log one structured record per request slower than this, with its dominant stage (0 = disabled)")
	flag.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof on this address (never on the serving mux; empty = disabled)")
	flag.Parse()
	if o.shards < 1 {
		o.shards = runtime.GOMAXPROCS(0) // mirror build's default for accurate logs
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	reg, srv, err := build(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "streamkmd: %v\n", err)
		os.Exit(2)
	}
	st := reg.Stats()
	if o.persistent() && st.Streams > 0 {
		if in, err := reg.Stat(o.defaultStream); err == nil && in.Count > 0 {
			logger.Info("restored default stream", "stream", o.defaultStream, "points", in.Count)
		}
		if st.Streams > 1 {
			logger.Info("registered streams from disk", "streams", st.Streams, "resident", st.Resident)
		}
	}
	hs := &http.Server{Addr: o.addr, Handler: srv.Handler()}

	if o.debugAddr != "" {
		go func() {
			logger.Info("serving pprof", "debug_addr", o.debugAddr)
			if err := http.ListenAndServe(o.debugAddr, debugMux()); err != nil {
				logger.Error("debug listener failed", "debug_addr", o.debugAddr, "error", err)
			}
		}()
	}

	go func() {
		logger.Info("serving",
			"backend", o.backend, "algo", o.algo, "k", o.k, "shards", o.shards,
			"addr", o.addr, "default_stream", o.defaultStream, "max_resident", o.maxStreams)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("listen failed", "addr", o.addr, "error", err)
			os.Exit(1)
		}
	}()

	done := make(chan struct{})
	if o.persistent() && o.ckptInterval > 0 {
		go func() {
			ticker := time.NewTicker(o.ckptInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if n := reg.Sweep(); n > 0 {
						logger.Info("hibernated idle streams", "streams", n)
					}
					// Dirty resident streams only; idle ones cost nothing.
					if err := reg.CheckpointAll(); err != nil {
						logger.Error("periodic checkpoint failed", "error", err)
					}
				case <-done:
					return
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	<-stop
	close(done)
	st = reg.Stats()
	logger.Info("shutting down", "streams", st.Streams, "resident", st.Resident)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("shutdown failed", "error", err)
	}
	// Final checkpoint after the listener has drained, so the files hold
	// every point any client got an ack for.
	if o.persistent() {
		if err := reg.CheckpointAll(); err != nil {
			logger.Error("final checkpoint failed", "error", err)
		} else {
			logger.Info("final checkpoint complete")
		}
	}
}
