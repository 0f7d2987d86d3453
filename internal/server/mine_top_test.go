package server

import (
	"bytes"
	"fmt"
	"net/http"
	"testing"

	"cuisinevol/internal/itemset"
)

// TestMineTopBodiesMatchFullMine pins /v1/mine's bodies and ETags to
// the ones built from the full mine, for tops at and past the edges:
// the first set, the default 25, every set and one more. The handler
// mines with MineTop, which builds only the first top sets; not one
// byte of a body may change for it.
func TestMineTopBodiesMatchFullMine(t *testing.T) {
	srv, ts := newTestServer(t)
	corpus := testCorpus(t)
	lex := corpus.Lexicon()
	ix, err := itemset.BuildIndex(corpus.Region("ITA").Transactions())
	if err != nil {
		t.Fatal(err)
	}
	for _, support := range []float64{srv.opts.MinSupport, 0.02} {
		full, err := itemset.MineIndexed(ix, support, itemset.MineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		total := len(full.Sets)
		if total < 26 {
			t.Fatalf("support %v: %d sets, too few to tell top=25 from the full mine", support, total)
		}
		for _, top := range []int{1, 25, total, total + 1} {
			sets := make([]minedSet, 0, min(top, total))
			for _, set := range full.Sets[:min(top, total)] {
				names := make([]string, len(set.Items))
				for j, id := range set.Items {
					names[j] = lex.Name(id)
				}
				sets = append(sets, minedSet{Items: names, Count: set.Count, Support: set.Support(full.N)})
			}
			want, err := marshalDeterministic(map[string]any{"region": "ITA", "total": total, "sets": sets})
			if err != nil {
				t.Fatal(err)
			}
			path := fmt.Sprintf("/v1/mine?region=ITA&support=%v&top=%d", support, top)
			resp, body := get(t, ts, path)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("GET %s: body differs from the full mine's\ngot:  %.300s\nwant: %.300s", path, body, want)
			}
			canon := canonicalParams("categories", false, "region", "ITA", "support", support, "top", top)
			if etag := `"` + resultKey(srv.fingerprint, "/v1/mine", canon)[:32] + `"`; resp.Header.Get("ETag") != etag {
				t.Fatalf("GET %s: ETag %q, want %q", path, resp.Header.Get("ETag"), etag)
			}
		}
	}
}
