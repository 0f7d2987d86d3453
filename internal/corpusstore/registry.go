package corpusstore

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/kit"
	"cuisinevol/internal/recipe"
)

// RegistryStats is a snapshot of a Registry's counters, exposed on
// /metrics next to the result- and index-cache families.
type RegistryStats struct {
	Loads         uint64 // store loads executed (singleflight-deduplicated)
	LoadHits      uint64 // Resolves served from a memoized corpus
	LoadMisses    uint64 // Resolves that had to load (or join an in-flight load)
	Evictions     uint64 // memoized corpora evicted to fit the memo budget
	LoadedBytes   int64  // serialized bytes of memoized corpora
	LoadedEntries int    // memoized corpora
	Puts          uint64 // corpora registered (distinct content)
	Deletes       uint64 // corpora deleted
	StoreBytes    int64  // payload bytes in the backing store
	StoreEntries  int    // corpora in the backing store
}

// memoBudget bounds the registry memo at 64 MiB of serialized corpus
// bytes, the same default as the result and index caches. Every append
// registers a full corpus version, so without a bound a stream of
// appends would grow memory without limit; an evicted corpus reloads
// from the store on its next Resolve.
const memoBudget = 64 << 20

// Registry owns named corpora on top of a content-addressed Store. It
// assigns name@version bindings at registration, resolves references
// (name, name@version, or raw fingerprint), and memoizes loaded
// *recipe.Corpus values in a byte-budget LRU behind singleflight, so
// concurrent requests for a cold corpus trigger exactly one store read
// + parse.
//
// Loaded corpora are immutable; a Delete or an eviction drops the memo
// entry but never touches a loaded corpus another request still pins,
// so in-flight work completes against the version it resolved. Safe
// for concurrent use.
type Registry struct {
	store Store
	lex   *ingredient.Lexicon

	mu       sync.Mutex
	versions map[string]map[int]string // name -> version -> id

	memo    *kit.LRU[loadedCorpus] // id -> corpus, costed by serialized bytes
	loading kit.Group[loadedCorpus]

	loads, puts, deletes atomic.Uint64
}

type loadedCorpus struct {
	corpus *recipe.Corpus
	info   Info
}

// NewRegistry builds a registry over store, rebuilding the name table
// from the store's manifest (so an FSStore-backed registry comes up
// warm after a restart). lex nil selects the built-in lexicon.
func NewRegistry(store Store, lex *ingredient.Lexicon) (*Registry, error) {
	return newRegistry(store, lex, memoBudget)
}

// newRegistry is NewRegistry with the memo budget as a parameter.
func newRegistry(store Store, lex *ingredient.Lexicon, budget int64) (*Registry, error) {
	if lex == nil {
		lex = ingredient.Builtin()
	}
	infos, err := store.List()
	if err != nil {
		return nil, fmt.Errorf("corpusstore: listing store: %w", err)
	}
	r := &Registry{
		store:    store,
		lex:      lex,
		versions: make(map[string]map[int]string),
		memo:     kit.NewLRU[loadedCorpus](budget),
	}
	for _, info := range infos {
		if err := ValidateName(info.Name); err != nil || info.Version < 1 {
			continue // quarantine-grade manifest entry; skip the binding
		}
		byVersion := r.versions[info.Name]
		if byVersion == nil {
			byVersion = make(map[int]string)
			r.versions[info.Name] = byVersion
		}
		byVersion[info.Version] = info.ID
	}
	return r, nil
}

// Store returns the backing store.
func (r *Registry) Store() Store { return r.store }

// Lexicon returns the lexicon corpora are resolved against.
func (r *Registry) Lexicon() *ingredient.Lexicon { return r.lex }

// Register serializes corpus, stores it under its content fingerprint,
// and binds name@<next version> to it. Registering content that is
// already stored is idempotent when the name matches (the existing Info
// is returned — no new version is minted) and ErrNameTaken when it is
// bound to a different name, keeping the content-addressed store a
// function from ID to one binding.
func (r *Registry) Register(name string, corpus *recipe.Corpus) (Info, error) {
	if err := ValidateName(name); err != nil {
		return Info{}, err
	}
	id := corpus.Fingerprint()

	r.mu.Lock()
	if existing, err := r.store.Stat(id); err == nil {
		r.mu.Unlock()
		if existing.Name == name {
			return existing, nil
		}
		return Info{}, fmt.Errorf("%w: content %s is already registered as %s",
			ErrNameTaken, id, existing.Ref())
	}
	version := 1
	for v := range r.versions[name] {
		if v >= version {
			version = v + 1
		}
	}
	r.mu.Unlock()

	// Serialize outside the lock — corpora run to tens of megabytes.
	var buf bytes.Buffer
	if err := corpus.WriteJSONL(&buf); err != nil {
		return Info{}, fmt.Errorf("corpusstore: serializing corpus: %w", err)
	}
	info := Info{
		ID:      id,
		Name:    name,
		Version: version,
		Recipes: corpus.Len(),
		Regions: len(corpus.Regions()),
		Bytes:   int64(buf.Len()),
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	// Re-check under the lock: a concurrent Register of the same
	// content may have landed while we serialized.
	if existing, err := r.store.Stat(id); err == nil {
		if existing.Name == name {
			return existing, nil
		}
		return Info{}, fmt.Errorf("%w: content %s is already registered as %s",
			ErrNameTaken, id, existing.Ref())
	}
	for v := range r.versions[name] {
		if v >= version {
			version = v + 1
		}
	}
	info.Version = version
	if err := r.store.Put(info, buf.Bytes()); err != nil {
		return Info{}, err
	}
	byVersion := r.versions[name]
	if byVersion == nil {
		byVersion = make(map[int]string)
		r.versions[name] = byVersion
	}
	byVersion[version] = id
	// The registered corpus is hot by construction — memoize it so the
	// first request for it doesn't reload what we just serialized.
	r.memo.Put(id, loadedCorpus{corpus: corpus, info: info}, info.Bytes)
	r.puts.Add(1)
	return info, nil
}

// resolveID maps a reference to the stored corpus ID it names.
// Resolution rules (DESIGN.md §13): a 32-hex-char reference is a raw
// fingerprint; otherwise it is name or name@version, where a bare name
// selects the highest registered version.
func (r *Registry) resolveID(ref string) (string, error) {
	name, version, id, err := parseRef(ref)
	if err != nil {
		return "", err
	}
	if id != "" {
		return id, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	byVersion := r.versions[name]
	if len(byVersion) == 0 {
		return "", fmt.Errorf("%w: no corpus named %q", ErrNotFound, name)
	}
	if version == 0 {
		for v := range byVersion {
			if v > version {
				version = v
			}
		}
	}
	id, ok := byVersion[version]
	if !ok {
		return "", fmt.Errorf("%w: %s@%d (registered versions differ)", ErrNotFound, name, version)
	}
	return id, nil
}

// Resolve returns the corpus a reference names, loading and memoizing
// it on first use. Concurrent Resolves of a cold corpus share one
// load; the loaded corpus is verified against its content fingerprint
// (mismatch is ErrCorrupt and nothing is memoized).
func (r *Registry) Resolve(ref string) (*recipe.Corpus, Info, error) {
	id, err := r.resolveID(ref)
	if err != nil {
		return nil, Info{}, err
	}

	if lc, ok := r.memo.Get(id); ok {
		return lc.corpus, lc.info, nil
	}
	lc, err, _ := r.loading.Do(context.Background(), id, func(context.Context) (loadedCorpus, error) {
		// A load that completed between the memo miss and this call's
		// leadership already memoized the corpus.
		if lc, ok := r.memo.Peek(id); ok {
			return lc, nil
		}
		r.loads.Add(1)
		return r.load(id)
	}, func(lc loadedCorpus) { r.memo.Put(id, lc, lc.info.Bytes) })
	return lc.corpus, lc.info, err
}

// load reads and parses one corpus from the store, verifying content
// addressing end to end: the parsed corpus must reproduce the ID it
// was stored under.
func (r *Registry) load(id string) (loadedCorpus, error) {
	data, info, err := r.store.Get(id)
	if err != nil {
		return loadedCorpus{}, err
	}
	corpus, err := recipe.ReadJSONL(bytes.NewReader(data), r.lex)
	if err != nil {
		return loadedCorpus{}, fmt.Errorf("%w: %s does not parse: %v", ErrCorrupt, id, err)
	}
	if got := corpus.Fingerprint(); got != id {
		return loadedCorpus{}, fmt.Errorf("%w: %s loads with fingerprint %s", ErrCorrupt, id, got)
	}
	return loadedCorpus{corpus: corpus, info: info}, nil
}

// List returns every registered corpus, sorted by (Name, Version).
func (r *Registry) List() ([]Info, error) { return r.store.List() }

// Delete removes the corpus a reference names from the store and drops
// its binding and memo entry. Loaded corpora held by in-flight requests
// stay valid — the memory is released when the last holder lets go.
func (r *Registry) Delete(ref string) (Info, error) {
	id, err := r.resolveID(ref)
	if err != nil {
		return Info{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	info, err := r.store.Stat(id)
	if err != nil {
		return Info{}, err
	}
	if err := r.store.Delete(id); err != nil {
		return Info{}, err
	}
	if byVersion := r.versions[info.Name]; byVersion != nil {
		delete(byVersion, info.Version)
		if len(byVersion) == 0 {
			delete(r.versions, info.Name)
		}
	}
	// Drop any in-flight load before removing the memo entry, so a load
	// racing this delete cannot memoize the corpus after it.
	r.loading.Drop(func(key string) bool { return key == id })
	r.memo.Take(id)
	r.deletes.Add(1)
	return info, nil
}

// Stats returns a snapshot of the registry counters.
func (r *Registry) Stats() RegistryStats {
	memo := r.memo.Stats()
	storeBytes, storeEntries := r.store.Bytes()
	return RegistryStats{
		Loads:         r.loads.Load(),
		LoadHits:      memo.Hits,
		LoadMisses:    memo.Misses,
		Evictions:     memo.Evictions,
		LoadedBytes:   memo.Bytes,
		LoadedEntries: memo.Entries,
		Puts:          r.puts.Load(),
		Deletes:       r.deletes.Load(),
		StoreBytes:    storeBytes,
		StoreEntries:  storeEntries,
	}
}
