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
	h := sha256.New()
	h.Write([]byte(fingerprint))
	h.Write([]byte{0})
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write([]byte(params))
	return hex.EncodeToString(h.Sum(nil))
}
