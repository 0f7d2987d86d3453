package peering

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func testEntries(n int) []SnapshotEntry {
	out := make([]SnapshotEntry, n)
	for i := range out {
		out[i] = SnapshotEntry{
			Key:  fmt.Sprintf("%064x", uint64(i+1)*0x9E3779B97F4A7C15),
			Body: []byte(fmt.Sprintf(`{"value":%d,"text":"body with\nnewline"}`, i)),
		}
	}
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	entries := testEntries(7)
	if err := WriteSnapshot(path, "n1", "fp0123", entries); err != nil {
		t.Fatal(err)
	}
	meta, got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 || meta.Node != "n1" || meta.Corpus != "fp0123" || meta.Entries != 7 {
		t.Fatalf("meta = %+v", meta)
	}
	if len(got) != len(entries) {
		t.Fatalf("restored %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i].Key != entries[i].Key || !bytes.Equal(got[i].Body, entries[i].Body) {
			t.Fatalf("entry %d drifted: %+v vs %+v", i, got[i], entries[i])
		}
	}

	// Empty snapshots round-trip too (a cold node saving at shutdown).
	if err := WriteSnapshot(path, "n1", "fp0123", nil); err != nil {
		t.Fatal(err)
	}
	meta, got, err = ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Entries != 0 || len(got) != 0 {
		t.Fatalf("empty snapshot: meta=%+v entries=%d", meta, len(got))
	}
}

func TestSnapshotOverwriteIsAtomicReplacement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	if err := WriteSnapshot(path, "n1", "fp", testEntries(3)); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(path, "n1", "fp", testEntries(5)); err != nil {
		t.Fatal(err)
	}
	meta, entries, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Entries != 5 || len(entries) != 5 {
		t.Fatalf("after overwrite: meta=%+v entries=%d", meta, len(entries))
	}
	// No temp droppings left behind.
	files, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.Name() != filepath.Base(path) {
			t.Fatalf("temp file %s left behind", f.Name())
		}
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snapshot")
	if err := WriteSnapshot(path, "n1", "fp", testEntries(4)); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte {
			out := append([]byte(nil), b...)
			out[len(out)-10] ^= 0x40
			return out
		},
		"truncated tail": func(b []byte) []byte {
			return b[:len(b)-20]
		},
		"header count lies": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"entries":4`), []byte(`"entries":3`), 1)
		},
		"mangled header": func(b []byte) []byte {
			return append([]byte("not json\n"), b...)
		},
	}
	for name, corrupt := range corruptions {
		if err := os.WriteFile(path, corrupt(pristine), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadSnapshot(path); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s: got %v, want ErrSnapshotCorrupt", name, err)
		}
	}

	// Header-count corruption aside, a changed count with a recomputed
	// fingerprint would still fail on the record scan; and quarantining
	// preserves the evidence under .corrupt.
	if err := os.WriteFile(path, corruptions["flipped payload byte"](pristine), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := QuarantineSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, _, err := ReadSnapshot(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("after quarantine, read = %v, want fs.ErrNotExist", err)
	}
}

func TestSnapshotRejectsMalformedKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snapshot")
	err := WriteSnapshot(path, "n1", "fp", []SnapshotEntry{{Key: "short", Body: []byte("{}")}})
	if err == nil {
		t.Fatal("malformed key accepted at write")
	}
}
