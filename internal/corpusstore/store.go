// Package corpusstore is the multi-corpus storage subsystem: a
// content-addressed Store for serialized corpora (in-memory and durable
// filesystem implementations), a Registry that owns corpus names and
// memoizes loaded corpora behind singleflight, and a streaming importer
// that turns raw CSV/JSONL recipe files into registered corpora with
// bounded memory (DESIGN.md §13).
//
// Identity is the corpus content fingerprint (recipe.Corpus.Fingerprint):
// the same recipes produce the same ID no matter how they were imported,
// so the result cache and the itemset index cache — which already key on
// the fingerprint — serve multiple corpora with no invalidation logic,
// and an import of identical content is a no-op.
package corpusstore

import (
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Typed failures. Callers branch on these with errors.Is: the serving
// layer maps ErrNotFound to 404, ErrTooLarge to 413, ErrNameTaken to
// 409, and ErrCorrupt to 500 plus a quarantine.
var (
	// ErrNotFound reports that no stored corpus matches the ID or
	// reference.
	ErrNotFound = errors.New("corpusstore: corpus not found")
	// ErrCorrupt reports that a stored entry failed verification (the
	// data does not reproduce its content fingerprint).
	ErrCorrupt = errors.New("corpusstore: corpus data corrupt")
	// ErrTooLarge reports that a Put would exceed the store's byte
	// budget (or an import its size limits).
	ErrTooLarge = errors.New("corpusstore: corpus too large")
	// ErrNameTaken reports a Register of existing content under a
	// different name, or a name that cannot be claimed.
	ErrNameTaken = errors.New("corpusstore: name conflict")
	// ErrBadName reports a syntactically invalid corpus name.
	ErrBadName = errors.New("corpusstore: invalid corpus name")
	// ErrBadRef reports a syntactically invalid corpus reference.
	ErrBadRef = errors.New("corpusstore: invalid corpus reference")
)

// Info describes one stored corpus: its content-addressed identity, the
// name@version binding the registry assigned, and summary statistics.
// It is the manifest entry of the filesystem store and one row of
// GET /v1/corpora.
type Info struct {
	// ID is the hex content fingerprint of the corpus
	// (recipe.Corpus.Fingerprint of the loaded data).
	ID string `json:"id"`
	// Name and Version form the registry binding; Version is 1-based
	// and increments per distinct content registered under Name.
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Recipes and Regions summarize the corpus; Bytes is the size of
	// its serialized (JSONL) form.
	Recipes int   `json:"recipes"`
	Regions int   `json:"regions"`
	Bytes   int64 `json:"bytes"`
}

// Ref renders the canonical name@version reference for the entry.
func (in Info) Ref() string { return fmt.Sprintf("%s@%d", in.Name, in.Version) }

// Store persists serialized corpora by content-addressed ID. Data is
// the corpus's clean JSONL serialization (recipe.(*Corpus).WriteJSONL);
// the ID must be the fingerprint of the corpus those bytes decode to —
// implementations store blindly, the Registry enforces the contract on
// write and verifies it on load. Implementations are safe for
// concurrent use.
type Store interface {
	// Put stores data under info.ID with its binding metadata. Storing
	// an ID that already exists replaces its Info (the bytes are
	// identical by content addressing). Returns ErrTooLarge when the
	// store's byte budget would be exceeded.
	Put(info Info, data []byte) error
	// Get returns the stored bytes and Info for id, or ErrNotFound.
	Get(id string) ([]byte, Info, error)
	// Stat returns the Info for id without reading data.
	Stat(id string) (Info, error)
	// List returns every stored Info, sorted by (Name, Version).
	List() ([]Info, error)
	// Delete removes id, or returns ErrNotFound.
	Delete(id string) error
	// Bytes returns the total stored payload bytes and entry count.
	Bytes() (int64, int)
}

// sortInfos orders infos by (Name, Version), then ID — the stable
// listing order every implementation returns. The ID tie-break keeps
// the order total even for a manifest that binds one name@version
// twice.
func sortInfos(infos []Info) {
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Name != infos[j].Name {
			return infos[i].Name < infos[j].Name
		}
		if infos[i].Version != infos[j].Version {
			return infos[i].Version < infos[j].Version
		}
		return infos[i].ID < infos[j].ID
	})
}

// nameRe is the corpus-name grammar: lowercase alphanumeric plus '-',
// '_' and '.', starting alphanumeric, at most 64 runes. Names never
// look like fingerprints (which are 32 hex chars) because resolution
// tries names first and raw fingerprints second; isHexID filters the
// one ambiguous shape out at registration time.
var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// hexIDRe matches a full corpus fingerprint (16-byte hash, hex).
var hexIDRe = regexp.MustCompile(`^[0-9a-f]{32}$`)

// ValidateName reports whether name can be registered.
func ValidateName(name string) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("%w: %q (want ^[a-z0-9][a-z0-9._-]{0,63}$)", ErrBadName, name)
	}
	if hexIDRe.MatchString(name) {
		return fmt.Errorf("%w: %q looks like a content fingerprint", ErrBadName, name)
	}
	return nil
}

// MemStore is the in-memory Store: a map under a mutex with an
// optional byte budget. The zero value is not usable; construct with
// NewMemStore.
type MemStore struct {
	mu      sync.Mutex
	budget  int64 // <= 0 means unbounded
	used    int64
	entries map[string]memEntry
}

type memEntry struct {
	info Info
	data []byte
}

// NewMemStore returns an empty in-memory store. budget <= 0 disables
// the byte bound.
func NewMemStore(budget int64) *MemStore {
	return &MemStore{budget: budget, entries: make(map[string]memEntry)}
}

// Put implements Store.
func (s *MemStore) Put(info Info, data []byte) error {
	info.Bytes = int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, exists := s.entries[info.ID]
	delta := info.Bytes
	if exists {
		delta -= int64(len(prev.data))
	}
	if s.budget > 0 && s.used+delta > s.budget {
		return fmt.Errorf("%w: %d bytes would exceed the %d-byte store budget",
			ErrTooLarge, info.Bytes, s.budget)
	}
	s.entries[info.ID] = memEntry{info: info, data: append([]byte(nil), data...)}
	s.used += delta
	return nil
}

// Get implements Store.
func (s *MemStore) Get(id string) ([]byte, Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return append([]byte(nil), e.data...), e.info, nil
}

// Stat implements Store.
func (s *MemStore) Stat(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e.info, nil
}

// List implements Store.
func (s *MemStore) List() ([]Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.info)
	}
	sortInfos(out)
	return out, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.used -= int64(len(e.data))
	delete(s.entries, id)
	return nil
}

// Bytes implements Store.
func (s *MemStore) Bytes() (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used, len(s.entries)
}

// parseRef splits a reference into its forms: a bare fingerprint, a
// bare name (version 0 = latest), or name@version.
func parseRef(ref string) (name string, version int, id string, err error) {
	ref = strings.TrimSpace(ref)
	if ref == "" {
		return "", 0, "", fmt.Errorf("%w: empty", ErrBadRef)
	}
	if hexIDRe.MatchString(ref) {
		return "", 0, ref, nil
	}
	name = ref
	if at := strings.LastIndexByte(ref, '@'); at >= 0 {
		name = ref[:at]
		v, err := strconv.Atoi(ref[at+1:])
		if err != nil || v < 1 {
			return "", 0, "", fmt.Errorf("%w: bad version %q in %q", ErrBadRef, ref[at+1:], ref)
		}
		version = v
	}
	if err := ValidateName(name); err != nil {
		return "", 0, "", fmt.Errorf("%w: %q is neither a name nor a fingerprint", ErrBadRef, ref)
	}
	return name, version, "", nil
}
