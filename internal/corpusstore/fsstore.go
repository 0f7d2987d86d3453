package corpusstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"cuisinevol/internal/kit"
)

// FSStore is the durable Store: corpus payloads live as
// <dir>/corpora/<id>.jsonl, bindings and stats in an fsync'd
// <dir>/manifest.json, and entries that fail integrity checks on open
// are moved — never silently deleted — to <dir>/quarantine/.
//
// Write protocol (crash-safe on POSIX semantics):
//
//  1. payload → temp file in <dir>, fsync, rename to corpora/<id>.jsonl,
//     fsync the directory;
//  2. manifest with the new entry → temp file, fsync, rename over
//     manifest.json, fsync the directory.
//
// The manifest rename is the commit point: a crash between (1) and (2)
// leaves an orphaned payload that the next Open quarantines. Deletes
// run in the opposite order (manifest first), so a crash mid-delete
// also degrades to an orphan, not a manifest entry without data.
type FSStore struct {
	dir    string
	budget int64 // <= 0 means unbounded

	mu          sync.Mutex
	entries     map[string]Info
	used        int64
	quarantined []string // entries moved aside by Open, for logging
}

const (
	manifestName  = "manifest.json"
	corporaDir    = "corpora"
	quarantineDir = "quarantine"
	payloadExt    = ".jsonl"
)

// manifest is the serialized registry state.
type manifest struct {
	Version int    `json:"version"`
	Entries []Info `json:"entries"`
}

// OpenFS opens (creating if needed) a filesystem store rooted at dir.
// budget <= 0 disables the byte bound. Entries whose payload is
// missing or has the wrong size — and payload files the manifest does
// not know — are quarantined; a corrupt manifest itself is moved to
// quarantine and the store starts empty (the payloads it described are
// quarantined as orphans, so nothing is destroyed).
func OpenFS(dir string, budget int64) (*FSStore, error) {
	for _, d := range []string{dir, filepath.Join(dir, corporaDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("corpusstore: creating %s: %w", d, err)
		}
	}
	s := &FSStore{dir: dir, budget: budget, entries: make(map[string]Info)}

	var m manifest
	raw, err := os.ReadFile(s.manifestPath())
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh store.
	case err != nil:
		return nil, fmt.Errorf("corpusstore: reading manifest: %w", err)
	default:
		if jerr := json.Unmarshal(raw, &m); jerr != nil {
			// Manifest corrupt: preserve it for inspection and start
			// empty; orphan scanning below parks the payloads too.
			if qerr := os.Rename(s.manifestPath(), filepath.Join(dir, quarantineDir, manifestName+".corrupt")); qerr != nil {
				return nil, fmt.Errorf("corpusstore: quarantining corrupt manifest: %w", qerr)
			}
			s.quarantined = append(s.quarantined, manifestName)
			m = manifest{}
		}
	}

	dirty := false
	for _, info := range m.Entries {
		if _, dup := s.entries[info.ID]; dup {
			dirty = true // counting a repeated entry twice would skew the budget
			continue
		}
		st, err := os.Stat(s.payloadPath(info.ID))
		if err != nil || st.Size() != info.Bytes || !hexIDRe.MatchString(info.ID) {
			s.quarantine(info.ID)
			dirty = true
			continue
		}
		s.entries[info.ID] = info
		s.used += info.Bytes
	}

	// Payloads the manifest doesn't describe (crashed Put, quarantined
	// manifest) are parked too: they are unreachable data, and leaving
	// them in corpora/ would let disk usage drift from the accounted
	// budget.
	names, err := os.ReadDir(filepath.Join(dir, corporaDir))
	if err != nil {
		return nil, fmt.Errorf("corpusstore: scanning %s: %w", corporaDir, err)
	}
	for _, de := range names {
		id := strings.TrimSuffix(de.Name(), payloadExt)
		if _, ok := s.entries[id]; !ok {
			s.quarantine(id)
		}
	}

	if dirty {
		if err := s.writeManifestLocked(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *FSStore) Dir() string { return s.dir }

// Quarantined returns the IDs (or file names) moved aside by Open.
func (s *FSStore) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.quarantined...)
}

func (s *FSStore) manifestPath() string { return filepath.Join(s.dir, manifestName) }

func (s *FSStore) payloadPath(id string) string {
	return filepath.Join(s.dir, corporaDir, id+payloadExt)
}

// quarantine moves an entry's payload (if present) into quarantine/.
func (s *FSStore) quarantine(id string) {
	src := s.payloadPath(id)
	if _, err := os.Stat(src); err == nil {
		_ = os.Rename(src, filepath.Join(s.dir, quarantineDir, id+payloadExt))
	}
	s.quarantined = append(s.quarantined, id)
}

// writeManifestLocked persists the current entries; callers hold s.mu.
func (s *FSStore) writeManifestLocked() error {
	infos := make([]Info, 0, len(s.entries))
	for _, info := range s.entries {
		infos = append(infos, info)
	}
	sortInfos(infos)
	raw, err := json.MarshalIndent(manifest{Version: 1, Entries: infos}, "", "  ")
	if err != nil {
		return fmt.Errorf("corpusstore: encoding manifest: %w", err)
	}
	if err := kit.WriteFileAtomic(s.manifestPath(), append(raw, '\n')); err != nil {
		return fmt.Errorf("corpusstore: writing manifest: %w", err)
	}
	return nil
}

// Put implements Store.
func (s *FSStore) Put(info Info, data []byte) error {
	if !hexIDRe.MatchString(info.ID) {
		return fmt.Errorf("corpusstore: malformed corpus id %q", info.ID)
	}
	info.Bytes = int64(len(data))
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, exists := s.entries[info.ID]
	delta := info.Bytes
	if exists {
		delta -= prev.Bytes
	}
	if s.budget > 0 && s.used+delta > s.budget {
		return fmt.Errorf("%w: %d bytes would exceed the %d-byte store budget",
			ErrTooLarge, info.Bytes, s.budget)
	}
	if err := kit.WriteFileAtomic(s.payloadPath(info.ID), data); err != nil {
		return fmt.Errorf("corpusstore: writing corpus %s: %w", info.ID, err)
	}
	s.entries[info.ID] = info
	s.used += delta
	if err := s.writeManifestLocked(); err != nil {
		// Roll back the in-memory state; the payload file becomes an
		// orphan the next Open quarantines.
		if exists {
			s.entries[info.ID] = prev
		} else {
			delete(s.entries, info.ID)
		}
		s.used -= delta
		return err
	}
	return nil
}

// Get implements Store.
func (s *FSStore) Get(id string) ([]byte, Info, error) {
	s.mu.Lock()
	info, ok := s.entries[id]
	s.mu.Unlock()
	if !ok {
		return nil, Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	data, err := os.ReadFile(s.payloadPath(id))
	if err != nil {
		return nil, Info{}, fmt.Errorf("corpusstore: reading corpus %s: %w", id, err)
	}
	if int64(len(data)) != info.Bytes {
		return nil, Info{}, fmt.Errorf("%w: %s payload is %d bytes, manifest says %d",
			ErrCorrupt, id, len(data), info.Bytes)
	}
	return data, info, nil
}

// Stat implements Store.
func (s *FSStore) Stat(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.entries[id]
	if !ok {
		return Info{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return info, nil
}

// List implements Store.
func (s *FSStore) List() ([]Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.entries))
	for _, info := range s.entries {
		out = append(out, info)
	}
	sortInfos(out)
	return out, nil
}

// Delete implements Store. The manifest commits the delete before the
// payload is unlinked, so a crash in between leaves an orphan (swept at
// next Open), never a dangling manifest entry.
func (s *FSStore) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(s.entries, id)
	s.used -= info.Bytes
	if err := s.writeManifestLocked(); err != nil {
		s.entries[id] = info
		s.used += info.Bytes
		return err
	}
	if err := os.Remove(s.payloadPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("corpusstore: removing corpus %s: %w", id, err)
	}
	return nil
}

// Bytes implements Store.
func (s *FSStore) Bytes() (int64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used, len(s.entries)
}
