package server

import (
	"crypto/sha256"
	"encoding/hex"
)

// resultKey addresses a cached result by content: the SHA-256 of
// (corpus fingerprint, endpoint, canonicalized params). Two requests
// share an entry exactly when they are guaranteed byte-identical
// answers — same corpus, same computation, same parameters — so the
// cache never needs invalidation, only eviction.
func resultKey(fingerprint, endpoint, params string) string {
	var buf [256]byte
	b := append(append(buf[:0], fingerprint...), 0)
	b = append(append(b, endpoint...), 0)
	sum := sha256.Sum256(append(b, params...))
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
