package server

import (
	"net/http"
	"strings"
	"testing"
)

// The literals below pin the cache-key contract. Every cache entry,
// ETag, peer-ring placement and persisted peer snapshot is addressed by
// these bytes, so a change to how parameters are read, canonicalized or
// hashed must leave every one of them as it is.
const (
	// pinnedFingerprint is the shared test corpus (synth seed 42, scale
	// 0.05); if it moves, the generator changed, not the key.
	pinnedFingerprint = "b7b7ad3f81093ec9d4d8dc6c7d4e6a86"
	// pinnedUploadID is uploadJSONL's fingerprint.
	pinnedUploadID = "3552375a888a73f0b0a0e483ff6cd8a7"
)

// TestCacheKeysPinned checks, per request, the canonical string and the
// resultKey it hashes to, and that the handler derives that same key:
// a conditional request carrying the pinned ETag is a 304 with nothing
// computed.
func TestCacheKeysPinned(t *testing.T) {
	srv, ts := newTestServer(t)
	if fp := srv.Fingerprint(); fp != pinnedFingerprint {
		t.Fatalf("test corpus fingerprint %s, pinned %s: the corpus changed, not the key", fp, pinnedFingerprint)
	}
	var up uploadBody
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name=tiny", uploadJSONL, &up); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	if up.Corpus.ID != pinnedUploadID {
		t.Fatalf("upload fingerprint %s, pinned %s", up.Corpus.ID, pinnedUploadID)
	}

	const (
		mine25  = "categories=false&region=ITA&support=0.05&top=25"
		mine10  = "categories=false&region=ITA&support=0.05&top=10"
		overrep = "k=5&region=ITA"
		fig4    = "categories=false&dists=false&regions=ITA,KOR&replicates=2"

		keyMine25  = "3fe2eec6cd8e9038300e3da33248ba1daf096a683cce67717bf571351633574f"
		keyMine10  = "c7e4f858bec660e1bc5bff744913ee0bca66abe2c911a54c2d168d0eef5662e9"
		keyOverrep = "b365827cb56fe83055a4796c29bfef160580c8a03a28431e3c1b066e10497016"
		keyFig4    = "0ec7b6477224ba1e3a95a1b53e45280f01e5db22f38a0d2dacd1b3bc98a15aae"
	)
	cases := []struct {
		path, endpoint, canon, key string
	}{
		{"/v1/cuisines", "/v1/cuisines", "", "10e0f4f4acfef23e71b6e8c40d06441186f2fd9c5f6ff42a8d183f79475a3f7c"},
		{"/v1/table1", "/v1/table1", "", "43f3849ed44231d810bcb2a3e55e4717592a9ea9c4b693a004bc02f46abd01d1"},
		{"/v1/fig1", "/v1/fig1", "", "49304124fcb4bc82ed7073c2f58e4f9c19672b1d12e7eb8fefcc2c5a863f3fad"},
		{"/v1/fig2", "/v1/fig2", "", "bd9aa3a07c4371b724aa6d55f18f6c2d4fa5e8ce905643baae1274aaf794ab1d"},
		{"/v1/fig3?support=0.1", "/v1/fig3", "support=0.1", "4facac254c49eff279bff98c9af0eacac7427e970bf210bf62674077afe4c211"},
		{"/v1/fig4?regions=kor,ITA&replicates=2", "/v1/fig4", fig4, keyFig4},
		{"/v1/mine?region=ITA", "/v1/mine", mine25, keyMine25},
		{"/v1/overrep?region=ITA&k=5", "/v1/overrep", overrep, keyOverrep},
		{"/v1/evolve?region=ITA&model=NM&replicates=2", "/v1/evolve", "model=NM&region=ITA&replicates=2&support=0.05", "fc937a62a9fa24f57a221eaeb7f2b4333059673601cb26aabe44a44f22b192c7"},
		{"/v1/mine?corpus=tiny&region=ITA&support=0.5", "/v1/mine", "categories=false&region=ITA&support=0.5&top=25", "c227677adbdf031fd276e993a4bf165177bcf861c5e0bdae0cdacc94d433e4e7"},
		// Three spellings of one support value share one key.
		{"/v1/mine?region=ITA&support=0.05&top=10", "/v1/mine", mine10, keyMine10},
		{"/v1/mine?region=ITA&support=0.050&top=10", "/v1/mine", mine10, keyMine10},
		{"/v1/mine?region=ITA&support=5e-2&top=10", "/v1/mine", mine10, keyMine10},
		// A repeated parameter: the first value wins.
		{"/v1/mine?region=ITA&region=KOR", "/v1/mine", mine25, keyMine25},
		// '+' and %20 decode to spaces, which are trimmed.
		{"/v1/mine?region=+ita+", "/v1/mine", mine25, keyMine25},
		{"/v1/overrep?region=%20ITA&k=5", "/v1/overrep", overrep, keyOverrep},
		{"/v1/fig4?regions=ITA,+kor&replicates=2", "/v1/fig4", fig4, keyFig4},
		// A pair containing ';' is dropped, so top keeps its default.
		{"/v1/mine?region=ITA&top=5;x=1", "/v1/mine", mine25, keyMine25},
		// kernel is an unknown parameter: ignored, like any other.
		{"/v1/mine?region=ITA&kernel=bad", "/v1/mine", mine25, keyMine25},
	}
	for _, c := range cases {
		fp := srv.Fingerprint()
		if strings.Contains(c.path, "corpus=") {
			fp = up.Corpus.ID
		}
		if got := resultKey(fp, c.endpoint, c.canon); got != c.key {
			t.Errorf("%s: resultKey %s, pinned %s", c.path, got, c.key)
			continue
		}
		etag := `"` + c.key[:32] + `"`
		rec := doReq(srv.Handler(), c.path, map[string]string{"If-None-Match": etag})
		if rec.Code != http.StatusNotModified {
			t.Errorf("%s: status %d with If-None-Match %s (want 304), ETag %s", c.path, rec.Code, etag, rec.Header().Get("ETag"))
		}
	}
	if n := srv.Computations(); n != 0 {
		t.Fatalf("%d computations behind conditional requests", n)
	}
	// A served response carries the pinned ETag too.
	const overrepETag = `"b365827cb56fe83055a4796c29bfef16"`
	if rec := doReq(srv.Handler(), "/v1/overrep?region=ITA&k=5", nil); rec.Header().Get("ETag") != overrepETag {
		t.Fatalf("overrep ETag %s, pinned %s", rec.Header().Get("ETag"), overrepETag)
	}
}

func TestCanonicalParamsPanicsOnNonAscendingNames(t *testing.T) {
	for _, pairs := range [][]any{
		{"region", "ITA", "k", 5},
		{"k", 5, "k", 6},
		{"k", 5, "region"}, // an odd pair count
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("canonicalParams%v did not panic", pairs)
				}
			}()
			canonicalParams(pairs...)
		}()
	}
}

// TestInvalidParamsKeepTheirError: with several bad parameters in one
// request, the first one in the handler's reading order is reported,
// with exactly the status and body pinned here.
func TestInvalidParamsKeepTheirError(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, c := range []struct {
		path   string
		status int
		body   string
	}{
		{"/v1/mine?region=ZZZ&support=2&top=0&kernel=bad", 404, `{"error":"unknown cuisine \"ZZZ\""}`},
		{"/v1/mine?region=ITA&support=2&top=0&kernel=bad", 400, `{"error":"support must be in (0, 1], got 2"}`},
		{"/v1/mine?region=ITA&top=0&categories=maybe&kernel=bad", 400, `{"error":"top must be in [1, 100000], got 0"}`},
		{"/v1/mine?region=ITA&categories=maybe&kernel=bad", 400, `{"error":"invalid categories \"maybe\": strconv.ParseBool: parsing \"maybe\": invalid syntax"}`},
		{"/v1/mine?corpus=nosuch&region=ZZZ&top=0", 404, `{"error":"unknown corpus \"nosuch\""}`},
		{"/v1/mine?corpus=bad@ref@&region=ZZZ", 400, `{"error":"invalid corpus reference \"bad@ref@\""}`},
		{"/v1/overrep?k=0", 400, `{"error":"missing required parameter region"}`},
		{"/v1/evolve?region=ITA&model=bogus&replicates=0&support=2", 400, `{"error":"unknown model \"bogus\" (use CM-R, CM-C, CM-M or NM)"}`},
		{"/v1/evolve?region=ITA&replicates=0&support=2", 400, `{"error":"replicates must be in [1, 10000], got 0"}`},
		{"/v1/fig4?replicates=0&categories=maybe&regions=ZZZ&dists=x", 400, `{"error":"replicates must be in [1, 10000], got 0"}`},
		{"/v1/fig4?categories=maybe&regions=ZZZ&dists=x", 400, `{"error":"invalid categories \"maybe\": strconv.ParseBool: parsing \"maybe\": invalid syntax"}`},
		{"/v1/fig4?regions=ZZZ&dists=x", 404, `{"error":"unknown cuisine \"ZZZ\""}`},
		{"/v1/fig4?regions=,&dists=x", 400, `{"error":"regions parameter is empty"}`},
		{"/v1/fig3?support=abc", 400, `{"error":"invalid support \"abc\": strconv.ParseFloat: parsing \"abc\": invalid syntax"}`},
		{"/v1/cuisines?corpus=nosuch", 404, `{"error":"unknown corpus \"nosuch\""}`},
	} {
		rec := doReq(srv.Handler(), c.path, nil)
		if rec.Code != c.status || rec.Body.String() != c.body+"\n" {
			t.Errorf("%s: %d %q, want %d %q", c.path, rec.Code, rec.Body.String(), c.status, c.body)
		}
	}
	if n := srv.Computations(); n != 0 {
		t.Fatalf("%d computations behind invalid requests", n)
	}
}
