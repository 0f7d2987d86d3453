// Package server is the HTTP serving layer: a JSON API over every
// analysis pipeline, built for the traffic shape interactive culinary
// analytics actually sees — a fixed corpus queried repeatedly with a
// small set of popular parameterizations. Three mechanisms carry the
// load (DESIGN.md §8):
//
//   - a content-addressed result cache keyed by (corpus fingerprint,
//     endpoint, canonicalized params) with LRU byte-budget eviction —
//     identical requests are served without recomputation and without
//     any invalidation logic, because the key *is* the content;
//   - singleflight coalescing — N concurrent identical requests cost
//     one computation;
//   - a bounded-admission compute pool — at most Compute pipeline
//     computations run at once, each fanning out through internal/sched
//     under the Workers budget, while cache hits bypass the gate
//     entirely; at most MaxQueue more may wait, and arrivals beyond
//     that are shed immediately with 503 + Retry-After (DESIGN.md §9).
//
// Every computed request runs under a per-endpoint deadline (Timeout);
// budget exhaustion is a structured 504, distinct from the 499 a
// client disconnect produces. Request contexts flow down into the
// replicate loops, so abandoned requests stop burning CPU; /metrics
// exposes the whole story — including shed and timeout counts — in
// Prometheus text format with no external dependencies. A seeded,
// fully deterministic fault-injection layer (chaos.go) lets the tests
// drive all of these failure paths without wall-clock sleeps.
//
// With Options.Peers configured the server joins a multi-node tier
// (peer.go, internal/peering, DESIGN.md §15): the result-cache keyspace
// is consistent-hash partitioned across the peer set, misses for
// remotely-owned keys are proxied to their owner (cross-node
// singleflight) and fill the local cache on the way back, and the
// result cache snapshots to disk so a restarted node comes up warm.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/kit"
	"cuisinevol/internal/peering"
	"cuisinevol/internal/recipe"
)

// Options configures the server.
type Options struct {
	// Seed, RecipeScale, MinSupport, Replicates and Workers mirror the
	// experiment.Config knobs and set the defaults for every request.
	Seed        uint64
	RecipeScale float64
	MinSupport  float64
	Replicates  int
	Workers     int
	// Compute bounds concurrent pipeline computations (the semaphore);
	// <= 0 means 2.
	Compute int
	// CacheBytes is the result-cache budget; <= 0 means 64 MiB.
	CacheBytes int64
	// IndexBytes is the corpus-index cache budget — the retained bytes
	// of prebuilt itemset.Index values shared by the mine, overrep,
	// evolve and table1 paths; <= 0 means 64 MiB.
	IndexBytes int64
	// Corpus, when non-nil, is served as the default corpus instead of
	// a generated one.
	Corpus *recipe.Corpus
	// Registry, when non-nil, backs the multi-corpus endpoints
	// (/v1/corpora and the corpus= parameter); nil selects a fresh
	// in-memory registry, so uploads work out of the box but do not
	// survive a restart. Wire a filesystem-backed registry (see
	// corpusstore.OpenFS) for durability.
	Registry *corpusstore.Registry
	// MaxUploadBytes bounds the total input bytes a corpus upload or
	// append may stream (ErrTooLarge → 413 beyond it); <= 0 selects the
	// corpusstore default (256 MiB).
	MaxUploadBytes int64
	// Timeout is the per-request compute deadline for the heavy pipeline
	// endpoints; lighter endpoints get a fraction of it (endpointBudget).
	// 0 selects the 2-minute default; negative disables deadlines.
	Timeout time.Duration
	// MaxQueue caps how many computations may wait for a compute slot;
	// arrivals beyond the cap are shed immediately with 503 and a
	// Retry-After hint. 0 selects 4×Compute; negative means no queue
	// (shed as soon as every slot is busy).
	MaxQueue int
	// Chaos, when non-nil, enables deterministic fault injection — a
	// test/staging facility, never set in production serving.
	Chaos *ChaosConfig

	// NodeID and Peers enable the multi-node serving tier (DESIGN.md
	// §15): Peers maps node ids (NodeID included) to base URLs, and the
	// result-cache keyspace is consistent-hash partitioned across them.
	// A cache miss for a key owned elsewhere is proxied to its owner
	// instead of recomputed; both empty (the default) serves single-node.
	NodeID string
	Peers  map[string]string
	// PeerVnodes is the virtual-node count per ring member; <= 0 selects
	// peering.DefaultVirtualNodes.
	PeerVnodes int
	// PeerFallback bounds concurrent local computations of
	// remotely-owned keys while their owner is unreachable; beyond it
	// such requests shed with 503 + Retry-After. <= 0 means Compute.
	PeerFallback int
	// PeerTransport carries forwarded requests; nil selects the real
	// HTTP transport. The in-process cluster harness injects a
	// peering.MemTransport here.
	PeerTransport http.RoundTripper
	// CacheSnapshotPath, when non-empty, names the result-cache snapshot
	// file: restored (fingerprint-verified) at startup so the node comes
	// up warm, written by SaveCacheSnapshot (the serve command calls it
	// on graceful shutdown).
	CacheSnapshotPath string
}

// Server is the HTTP analytics service. Create with New, expose with
// Handler, and drive with net/http.
type Server struct {
	opts        Options
	corpus      *recipe.Corpus // the default corpus (corpus= absent)
	fingerprint string
	registry    *corpusstore.Registry
	cache       *kit.LRU[[]byte] // rendered bodies by resultKey, costed by length
	indexes     *itemset.IndexCache
	live        *kit.LRU[*itemset.LiveIndex] // write heads by corpus fingerprint, cost 1 each
	flight      kit.Group[[]byte]
	admit       *admission
	chaos       *chaos
	peers       *peerLayer // nil when serving single-node
	metrics     *metrics
	mux         *http.ServeMux
	started     time.Time
}

// New builds the server, generating the synthetic corpus up front when
// none is supplied so the first request doesn't pay for corpus
// generation.
func New(opts Options) (*Server, error) {
	if opts.RecipeScale == 0 {
		opts.RecipeScale = 1.0
	}
	if opts.MinSupport == 0 {
		opts.MinSupport = 0.05
	}
	if opts.Replicates == 0 {
		opts.Replicates = 100
	}
	if opts.Compute <= 0 {
		opts.Compute = 2
	}
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = 64 << 20
	}
	if opts.IndexBytes <= 0 {
		opts.IndexBytes = 64 << 20
	}
	switch {
	case opts.Timeout == 0:
		opts.Timeout = defaultTimeout
	case opts.Timeout < 0:
		opts.Timeout = 0 // deadlines disabled
	}
	switch {
	case opts.MaxQueue == 0:
		opts.MaxQueue = 4 * opts.Compute
	case opts.MaxQueue < 0:
		opts.MaxQueue = 0 // no queue: shed once every slot is busy
	}
	corpus := opts.Corpus
	if corpus == nil {
		cfg := &experiment.Config{Seed: opts.Seed, RecipeScale: opts.RecipeScale}
		var err error
		corpus, err = cfg.Corpus()
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	registry := opts.Registry
	if registry == nil {
		var err error
		registry, err = corpusstore.NewRegistry(corpusstore.NewMemStore(0), corpus.Lexicon())
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	m := newMetrics()
	s := &Server{
		opts:        opts,
		corpus:      corpus,
		fingerprint: corpus.Fingerprint(),
		registry:    registry,
		cache:       kit.NewLRU[[]byte](opts.CacheBytes),
		indexes:     itemset.NewIndexCache(opts.IndexBytes),
		live:        kit.NewLRU[*itemset.LiveIndex](maxLiveHeads),
		admit:       newAdmission(opts.Compute, opts.MaxQueue, shedRetryAfter, m),
		chaos:       newChaos(opts.Chaos, m),
		metrics:     m,
		started:     time.Now(),
	}
	if len(opts.Peers) > 0 {
		fallbackSlots := opts.PeerFallback
		if fallbackSlots <= 0 {
			fallbackSlots = opts.Compute
		}
		peers, err := newPeerLayer(opts.NodeID, opts.Peers, opts.PeerVnodes, fallbackSlots, opts.PeerTransport)
		if err != nil {
			return nil, err
		}
		s.peers = peers
	} else if opts.NodeID != "" {
		return nil, fmt.Errorf("server: NodeID %q set without Peers", opts.NodeID)
	}
	if opts.CacheSnapshotPath != "" {
		if err := s.loadCacheSnapshot(); err != nil {
			return nil, err
		}
	}
	s.routes()
	return s, nil
}

// defaultTimeout is the heavy-endpoint deadline budget when Options
// leaves Timeout at zero.
const defaultTimeout = 2 * time.Minute

// shedRetryAfter is the Retry-After hint (seconds) on shed (503)
// responses: sheds happen because the queue is full right now, so the
// client should back off briefly and retry — the queue drains at
// pipeline speed, not instantly, but a fixed small hint keeps retries
// cheap and honest.
const shedRetryAfter = 1

// endpointBudget scales the base Timeout per endpoint: the ensemble and
// grid pipelines (fig3/fig4/table1/evolve/…) get the full budget, the
// single-mine and pure-lookup endpoints a fraction — a cheap endpoint
// that is slow is *more* wrong than a heavy one, and deserves a faster
// verdict. Endpoints not listed here get the full budget.
var endpointBudget = map[string]float64{
	"/v1/cuisines": 0.25,
	"/v1/overrep":  0.25,
	"/v1/mine":     0.5,
}

// endpointTimeout resolves the deadline budget for an endpoint; zero
// means deadlines are disabled.
func (s *Server) endpointTimeout(endpoint string) time.Duration {
	if s.opts.Timeout <= 0 {
		return 0
	}
	if f, ok := endpointBudget[endpoint]; ok {
		return time.Duration(float64(s.opts.Timeout) * f)
	}
	return s.opts.Timeout
}

// Handler returns the root handler for the service.
func (s *Server) Handler() http.Handler { return s.mux }

// Fingerprint returns the hex corpus fingerprint requests are cached
// under.
func (s *Server) Fingerprint() string { return s.fingerprint }

// Computations returns how many underlying pipeline computations have
// executed — the observable that cache and coalescing tests assert on.
func (s *Server) Computations() uint64 { return s.metrics.computations.Load() }

// corpusSel is one request's resolved corpus: the value every handler
// computes against and the fingerprint its cache keys carry. def marks
// the server's default corpus (no corpus= parameter).
type corpusSel struct {
	corpus      *recipe.Corpus
	fingerprint string
	def         bool
}

// selectCorpus resolves the request's corpus= parameter through the
// registry; absent (or the literal "default") selects the server's
// default corpus. The fingerprint of whatever is selected flows into
// the result-cache keys, so two references to the same content — a
// name, a pinned name@version, a raw fingerprint — share cache entries,
// and distinct corpora can never collide. A failure is recorded in q.
func (s *Server) selectCorpus(q *query) corpusSel {
	ref := strings.TrimSpace(q.get("corpus"))
	if ref == "" || ref == "default" {
		return corpusSel{corpus: s.corpus, fingerprint: s.fingerprint, def: true}
	}
	corpus, info, err := s.registry.Resolve(ref)
	switch {
	case err == nil:
		return corpusSel{corpus: corpus, fingerprint: info.ID}
	case errors.Is(err, corpusstore.ErrNotFound):
		q.fail(notFound("unknown corpus %q", ref))
	case errors.Is(err, corpusstore.ErrBadRef):
		q.fail(badRequest("invalid corpus reference %q", ref))
	default:
		// Remaining typed store failures (e.g. ErrCorrupt) keep their
		// canonical status mapping on the analytics endpoints too.
		q.fail(corpusError(err))
	}
	return corpusSel{}
}

// config builds the per-request experiment configuration. Each request
// gets a fresh Config sharing the selected corpus and the index cache
// (Config lazily memoizes the corpus; sharing the built one keeps
// requests from regenerating it, and sharing the index cache keeps
// pipeline runs from rebuilding per-region indexes the handlers already
// built — entries are fingerprint-keyed, so corpora never mix).
func (s *Server) config(sel corpusSel, replicates int) *experiment.Config {
	cfg := &experiment.Config{
		Seed:        s.opts.Seed,
		RecipeScale: s.opts.RecipeScale,
		MinSupport:  s.opts.MinSupport,
		Replicates:  replicates,
		Workers:     s.opts.Workers,
	}
	cfg.SetCorpus(sel.corpus)
	cfg.SetIndexes(s.indexes)
	return cfg
}

// httpError carries a status code — and, for overload statuses, a
// Retry-After hint — through the compute path.
type httpError struct {
	status     int
	msg        string
	retryAfter int // seconds; emitted as a Retry-After header when > 0
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// statusWriter records the status code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request metrics under the given
// endpoint label.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.observe(endpoint, sw.status, time.Since(start).Seconds())
	})
}

// serveComputed is the shared compute path: cache lookup, then
// singleflight coalescing, then the semaphore-gated computation. A
// request whose query recorded an invalid parameter gets that error
// instead, before anything is looked up. canon must be the
// canonicalized parameter string — requests that differ only in
// parameter spelling share a key — and fingerprint the selected
// corpus's content fingerprint, which content-addresses the cache entry
// (the corpus= spelling never reaches the key). compute returns the
// response value to be rendered as deterministic JSON.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, q *query, fingerprint, endpoint, canon string, compute func(ctx context.Context) (any, error)) {
	if q.err != nil {
		s.writeError(w, q.err)
		return
	}
	key := resultKey(fingerprint, endpoint, canon)
	etag := `"` + key[:32] + `"`
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	fault := FaultNone
	if s.chaos != nil {
		fault = s.chaos.faultFor(endpoint + "?" + canon)
	}
	if fault == FaultCancel {
		// The simulated client vanished before anything was computed or
		// served; report the 499 the real disconnect path produces.
		s.metrics.chaosInjected[FaultCancel].Add(1)
		s.writeError(w, context.Canceled)
		return
	}
	if body, ok := s.cache.Get(key); ok {
		s.writeBody(w, body, etag, "HIT")
		return
	}
	// Multi-node tier: a miss for a key owned by a peer is proxied to its
	// owner (whose cache, singleflight and admission then apply — the
	// cluster-wide exactly-once path) rather than recomputed here. A
	// request already forwarded by a peer is always served locally, so
	// forwarding is one hop even if two nodes transiently disagree about
	// membership. When the owner is unreachable this node computes the
	// key itself under the bounded fallback budget — availability over
	// placement — or sheds once that budget is busy.
	if s.peers != nil && r.Header.Get(peering.PeerHeader) == "" {
		if owner := s.peers.owner(key); owner != s.peers.self {
			if s.proxyServe(w, r, owner, endpoint, key) {
				return
			}
			if !s.peers.acquireFallback() {
				s.metrics.peerFallbackShed.Add(1)
				s.writeError(w, &httpError{
					status:     http.StatusServiceUnavailable,
					msg:        fmt.Sprintf("peer %s unreachable and fallback budget exhausted", owner),
					retryAfter: shedRetryAfter,
				})
				return
			}
			s.metrics.peerFallback.Add(1)
			defer s.peers.releaseFallback()
		}
	}
	ctx := r.Context()
	if d := s.endpointTimeout(endpoint); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, d, errDeadline)
		defer cancel()
	}
	// A new variable, not compute reassigned: a reassigned parameter the
	// closure below captures would move to the heap on every request.
	run := s.chaos.wrapCompute(endpoint+"?"+canon, fault, compute)
	for {
		body, err, shared := s.flight.Do(ctx, key, func(cctx context.Context) ([]byte, error) {
			// Double-check the cache: a computation that completed between
			// this request's cache miss and its flight leadership already
			// cached the body, and must not be repeated. Peek keeps the
			// hit/miss counters one-per-request.
			if body, ok := s.cache.Peek(key); ok {
				return body, nil
			}
			if err := s.admit.Acquire(cctx); err != nil {
				return nil, err
			}
			defer s.admit.Release()
			s.metrics.computations.Add(1)
			v, err := run(cctx)
			if err != nil {
				return nil, err
			}
			return marshalDeterministic(v)
		}, func(body []byte) { s.cache.Put(key, body, int64(len(body))) })
		if shared {
			s.metrics.coalesced.Add(1)
		}
		if err != nil {
			// Joining a computation whose waiters all left yields its
			// context.Canceled; if *this* request is still live, retry —
			// it becomes the new leader.
			if errors.Is(err, context.Canceled) && ctx.Err() == nil {
				continue
			}
			s.writeError(w, s.classifyComputeErr(ctx, endpoint, err))
			return
		}
		s.writeBody(w, body, etag, "MISS")
		return
	}
}

// errDeadline is the cancellation cause installed by the per-request
// deadline, distinguishing "the server's budget ran out" (504) from
// "the client went away" (499) when a context error surfaces.
var errDeadline = errors.New("server: request deadline exceeded")

// classifyComputeErr maps a compute-path failure to its response shape.
// A mine with too many frequent sets to count or hold is the request's
// fault — its support is too low for the corpus — and becomes a 400.
// Context errors are split by who pulled the plug: the server's own
// deadline becomes a structured 504 with a Retry-After hint and bumps
// the timeout counter; a genuine client cancellation stays a bare
// context error (writeError's 499). Everything else — including the
// admission layer's 503-carrying shed errors — passes through.
func (s *Server) classifyComputeErr(ctx context.Context, endpoint string, err error) error {
	if errors.Is(err, itemset.ErrTooManySets) {
		return badRequest("%v", err)
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if errors.Is(context.Cause(ctx), errDeadline) {
		s.metrics.deadlineTimeouts.Add(1)
		budget := s.endpointTimeout(endpoint)
		return &httpError{
			status:     http.StatusGatewayTimeout,
			msg:        fmt.Sprintf("deadline exceeded (budget %s)", budget),
			retryAfter: int((budget + time.Second - 1) / time.Second),
		}
	}
	return err
}

func (s *Server) writeBody(w http.ResponseWriter, body []byte, etag, cacheState string) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("ETag", etag)
	h.Set("X-Cache", cacheState)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	retryAfter := 0
	var he *httpError
	if errors.As(err, &he) {
		status = he.status
		retryAfter = he.retryAfter
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Client went away; 499 in the nginx tradition so the metric
		// distinguishes abandonment from failure.
		status = 499
	}
	body := map[string]any{"error": err.Error()}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		body["retry_after_seconds"] = retryAfter
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// canonicalParams renders parsed parameters in fixed formatting, so
// every spelling of the same request ("0.05", "0.050", "5e-2") maps to
// one cache key. Callers pass names in ascending order, and the pairs
// are appended in that order with no sort; a name out of order panics,
// as an odd pair count does.
func canonicalParams(pairs ...any) string {
	if len(pairs)%2 != 0 {
		panic("canonicalParams: odd pair count")
	}
	var buf [128]byte
	b := buf[:0]
	for i := 0; i < len(pairs); i += 2 {
		name := pairs[i].(string)
		if i > 0 {
			if prev := pairs[i-2].(string); name <= prev {
				panic("canonicalParams: " + name + " after " + prev)
			}
			b = append(b, '&')
		}
		b = append(append(b, name...), '=')
		switch v := pairs[i+1].(type) {
		case string:
			b = append(b, v...)
		case bool:
			b = strconv.AppendBool(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case float64:
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		default:
			panic("canonicalParams: unsupported type for " + name)
		}
	}
	return string(b)
}
