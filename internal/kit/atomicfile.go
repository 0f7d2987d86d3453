package kit

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data so that a crash leaves either
// the old file or the new one, never a torn file: it writes a temp file
// in the same directory, fsyncs it, renames it over path and fsyncs the
// directory so the rename survives power loss.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms and filesystems refuse to fsync a directory; the
	// rename is still atomic there, so that error does not fail the
	// write.
	_ = d.Sync()
	return nil
}
