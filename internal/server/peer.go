package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"sync/atomic"

	"cuisinevol/internal/peering"
)

// peerLayer is the server's view of the cluster: the consistent-hash
// ring that decides which node owns each result-cache key, the
// forwarding client that proxies misses to their owner, and a bounded
// fallback budget for the owner-unreachable path (DESIGN.md §15).
//
// The layer is nil on a single-node server: every key is locally owned
// and serveComputed never consults it. With peers configured, a cache
// miss for a remotely-owned key is proxied to the owner — whose own
// cache, singleflight group and admission gate then apply, so N nodes
// asking for one key still cost exactly one computation cluster-wide —
// and the 200 body fills the local cache on the way back (peer cache
// fill: the next request for that key on this node is a local hit).
type peerLayer struct {
	self  string
	state atomic.Pointer[peerState] // swapped whole by UpdatePeers
	// fallback bounds concurrent owner-unreachable local computations:
	// when the owner is down, this node computes remotely-owned keys
	// itself, but only fallbackSlots at a time — beyond that requests
	// shed with 503 rather than letting one dead peer redirect its whole
	// keyspace into this node's compute pool.
	fallback chan struct{}
}

// peerState is one immutable (ring, client) generation.
type peerState struct {
	ring   *peering.Ring
	client *peering.Client
}

// newPeerLayer validates the topology and builds the layer. peers maps
// node ids (including self) to base URLs; rt nil selects the real HTTP
// transport.
func newPeerLayer(self string, peers map[string]string, vnodes, fallbackSlots int, rt http.RoundTripper) (*peerLayer, error) {
	if self == "" {
		return nil, errors.New("server: peering requires a node id (Options.NodeID)")
	}
	if _, ok := peers[self]; !ok {
		return nil, fmt.Errorf("server: node id %q is not in the peer set", self)
	}
	members := make([]string, 0, len(peers))
	for id := range peers {
		members = append(members, id)
	}
	ring, err := peering.NewRing(members, vnodes)
	if err != nil {
		return nil, err
	}
	client, err := peering.NewClient(self, peers, rt)
	if err != nil {
		return nil, err
	}
	p := &peerLayer{self: self, fallback: make(chan struct{}, fallbackSlots)}
	p.state.Store(&peerState{ring: ring, client: client})
	return p, nil
}

// owner returns the node owning key under the current ring.
func (p *peerLayer) owner(key string) string {
	return p.state.Load().ring.Owner(key)
}

// acquireFallback takes a fallback slot without blocking; ok reports
// whether one was free.
func (p *peerLayer) acquireFallback() bool {
	select {
	case p.fallback <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *peerLayer) releaseFallback() { <-p.fallback }

// UpdatePeers replaces the membership (and peer base URLs) atomically.
// Ownership moves only for the keyspace arcs the change actually
// reassigns — counted onto cuisinevol_peer_ring_moves_total — and
// in-flight requests finish under the ring they started with. Cache
// entries never move: a key whose owner changed is simply recomputed
// (or peer-filled) at its new owner on next miss, while the old owner's
// copy ages out by LRU — content addressing makes stale placement
// harmless.
func (s *Server) UpdatePeers(peers map[string]string) error {
	if s.peers == nil {
		return errors.New("server: peering is not enabled")
	}
	if _, ok := peers[s.peers.self]; !ok {
		return fmt.Errorf("server: node id %q is not in the new peer set", s.peers.self)
	}
	members := make([]string, 0, len(peers))
	for id := range peers {
		members = append(members, id)
	}
	ring, err := peering.NewRing(members, s.opts.PeerVnodes)
	if err != nil {
		return err
	}
	client, err := peering.NewClient(s.peers.self, peers, s.opts.PeerTransport)
	if err != nil {
		return err
	}
	prev := s.peers.state.Swap(&peerState{ring: ring, client: client})
	s.metrics.peerRingMoves.Add(uint64(ring.Moved(prev.ring)))
	return nil
}

// NodeID returns this server's cluster node id ("" when peering is
// disabled).
func (s *Server) NodeID() string {
	if s.peers == nil {
		return ""
	}
	return s.peers.self
}

// proxyHeaders are the response headers relayed verbatim from the owner
// to the client on a proxied request.
var proxyHeaders = []string{"Content-Type", "ETag", "X-Cache", "Retry-After"}

// proxyServe forwards the request to the key's owner and relays the
// answer. It returns true when the request has been fully served (any
// HTTP status from the owner, or a deadline/cancel that resolved during
// the forward) and false when the owner was unreachable at the
// transport level — the caller then falls back to bounded local
// compute. A 200 body fills the local cache before relay.
func (s *Server) proxyServe(w http.ResponseWriter, r *http.Request, owner, endpoint, key string) bool {
	ctx := r.Context()
	if d := s.endpointTimeout(endpoint); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, d, errDeadline)
		defer cancel()
	}
	res, err := s.peers.state.Load().client.Forward(ctx, owner, r.URL.RequestURI(), r.Header.Get("If-None-Match"))
	if err != nil {
		if ctx.Err() != nil {
			// The forward died with this request's own deadline or the
			// client's disconnect, not the owner: report the same 504/499
			// the local compute path would, and do not fall back — the
			// budget is already spent.
			s.writeError(w, s.classifyComputeErr(ctx, endpoint, ctx.Err()))
			return true
		}
		return false
	}
	s.metrics.peerProxied.Add(1)
	if res.Status == http.StatusOK {
		s.cache.Put(key, res.Body, int64(len(res.Body))) // peer cache fill
	}
	h := w.Header()
	for _, name := range proxyHeaders {
		if v := res.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-Peer-Owner", owner)
	w.WriteHeader(res.Status)
	w.Write(res.Body)
	return true
}

// loadCacheSnapshot restores the result cache from opts.CacheSnapshotPath
// at startup. A missing file is a cold start; a corrupt file is counted,
// quarantined (path + ".corrupt") and otherwise ignored — a snapshot is
// a cache, so integrity failures cost warmth, never correctness or
// availability.
func (s *Server) loadCacheSnapshot() error {
	path := s.opts.CacheSnapshotPath
	_, entries, err := peering.ReadSnapshot(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case err != nil:
		s.metrics.peerSnapshotLoadErrors.Add(1)
		if qerr := peering.QuarantineSnapshot(path); qerr != nil && !errors.Is(qerr, fs.ErrNotExist) {
			return fmt.Errorf("server: quarantining corrupt snapshot: %v (load error: %w)", qerr, err)
		}
		fmt.Fprintf(os.Stderr, "cuisinevol serve: cache snapshot %s corrupt, quarantined and starting cold: %v\n", path, err)
		return nil
	}
	// Entries are ordered least-recently used first, so replaying them
	// through Put reconstructs the original recency order.
	for _, e := range entries {
		s.cache.Put(e.Key, e.Body, int64(len(e.Body)))
	}
	s.metrics.peerSnapshotLoads.Add(1)
	s.metrics.peerSnapshotEntries.Add(uint64(len(entries)))
	return nil
}

// SaveCacheSnapshot persists the result cache to Options.CacheSnapshotPath
// (atomic temp-write → fsync → rename, fingerprint-verified on load) and
// returns how many entries were written. Call it from a shutdown path or
// periodically; a crash between snapshots only loses warmth accumulated
// since the last save.
func (s *Server) SaveCacheSnapshot() (int, error) {
	path := s.opts.CacheSnapshotPath
	if path == "" {
		return 0, errors.New("server: no cache snapshot path configured")
	}
	raw := s.cache.All()
	entries := make([]peering.SnapshotEntry, len(raw))
	for i, e := range raw {
		entries[i] = peering.SnapshotEntry{Key: e.Key, Body: e.Value}
	}
	if err := peering.WriteSnapshot(path, s.NodeID(), s.fingerprint, entries); err != nil {
		return 0, err
	}
	s.metrics.peerSnapshotSaves.Add(1)
	return len(entries), nil
}
