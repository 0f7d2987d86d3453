package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"testing"
)

// analysisGoldenPath is the committed /v1/overrep and /v1/evolve
// response bodies, relative to this package.
const analysisGoldenPath = "testdata/analysis.golden"

// TestAnalysisBodiesGolden pins the Eq 1 and Eq 2 answers byte for
// byte: /v1/overrep and /v1/evolve on the default corpus and on an
// uploaded one selected with corpus=. Regenerate with
// `go test ./internal/server -run AnalysisBodiesGolden -update`.
func TestAnalysisBodiesGolden(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := doJSON(t, ts, http.MethodPost, "/v1/corpora?name=tiny", uploadJSONL, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	for _, path := range []string{
		"/v1/overrep?region=USA&k=5",
		"/v1/evolve?region=ITA&model=CM-R&replicates=2",
		"/v1/overrep?corpus=tiny&region=KOR&k=4",
		"/v1/evolve?corpus=tiny&region=ITA&model=CM-C&replicates=3&support=0.5",
	} {
		resp, body := get(t, ts, path)
		fmt.Fprintf(&buf, "GET %s\n%d\n%s\n", path, resp.StatusCode, body)
	}
	got := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(analysisGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(analysisGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response bodies differ from %s\n got:\n%s\nwant:\n%s", analysisGoldenPath, got, want)
	}
}
