package peering

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadSnapshot feeds arbitrary bytes to ReadSnapshot, the file a
// node reads at startup. Every input must end as ErrSnapshotCorrupt,
// after which QuarantineSnapshot moves the file aside, or as a complete
// snapshot: its entry count matches the header, every key is
// well-formed, and writing the entries back reads back the same
// entries. No input may panic.
func FuzzReadSnapshot(f *testing.F) {
	dir := f.TempDir()
	for _, n := range []int{0, 1, 3} {
		path := filepath.Join(dir, "seed.snapshot")
		if err := WriteSnapshot(path, "n1", "fp", testEntries(n)); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cache.snapshot")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta, entries, err := ReadSnapshot(path)
		if err != nil {
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("ReadSnapshot error %v is not ErrSnapshotCorrupt", err)
			}
			if err := QuarantineSnapshot(path); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("corrupt snapshot still in place after quarantine: %v", err)
			}
			return
		}
		if len(entries) != meta.Entries {
			t.Fatalf("%d entries, header says %d", len(entries), meta.Entries)
		}
		for _, e := range entries {
			if !snapshotKeyRe.MatchString(e.Key) {
				t.Fatalf("accepted malformed key %q", e.Key)
			}
		}
		if err := WriteSnapshot(path, meta.Node, meta.Corpus, entries); err != nil {
			t.Fatal(err)
		}
		_, again, err := ReadSnapshot(path)
		if err != nil {
			t.Fatalf("rewritten snapshot does not read back: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("rewrite holds %d entries, want %d", len(again), len(entries))
		}
		for i := range entries {
			if again[i].Key != entries[i].Key || !bytes.Equal(again[i].Body, entries[i].Body) {
				t.Fatalf("entry %d changed on rewrite", i)
			}
		}
	})
}
