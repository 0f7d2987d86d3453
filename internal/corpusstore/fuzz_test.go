package corpusstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzImport drives Import over arbitrary input in the given format and
// checks the invariants that hold for every input:
//
//   - no panic (the fuzz engine's baseline property);
//   - on success the result is complete and self-consistent (corpus
//     present, accepted count matches, error sample bounded by its cap
//     and by the skip count);
//   - the corpus fingerprint is deterministic: serializing the imported
//     corpus and reloading it yields the same fingerprint (the
//     content-addressing contract the store and caches key on).
func fuzzImport(t *testing.T, data []byte, format Format) {
	// Tight limits keep each execution cheap and exercise the
	// record/total byte-budget paths constantly.
	opts := ImportOptions{
		Format:         format,
		MaxRecordBytes: 4 << 10,
		MaxTotalBytes:  64 << 10,
		MaxErrorSample: 4,
	}
	res, err := Import(bytes.NewReader(data), opts)
	if err != nil {
		return // typed rejection of malformed/oversized input is fine
	}
	if res.Corpus == nil {
		t.Fatal("Import returned nil corpus with nil error")
	}
	if got, want := res.Corpus.Len(), res.Stats.Accepted; got != want {
		t.Fatalf("corpus holds %d recipes, stats accepted %d", got, want)
	}
	if len(res.ErrorSample) > opts.MaxErrorSample {
		t.Fatalf("error sample %d exceeds cap %d", len(res.ErrorSample), opts.MaxErrorSample)
	}
	if len(res.ErrorSample) > res.Skipped {
		t.Fatalf("error sample %d exceeds skipped %d", len(res.ErrorSample), res.Skipped)
	}
	for _, issue := range res.ErrorSample {
		if issue.Record < 1 || issue.Line < 1 {
			t.Fatalf("error sample has non-positive record/line: %+v", issue)
		}
	}
	if res.Stats.Accepted == 0 {
		return
	}
	// Round-trip determinism: the serialized corpus must reload to the
	// same content address.
	var buf bytes.Buffer
	if err := res.Corpus.WriteJSONL(&buf); err != nil {
		t.Fatalf("serializing imported corpus: %v", err)
	}
	reg, err := NewRegistry(NewMemStore(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := reg.Register("fuzz", res.Corpus)
	if err != nil {
		t.Fatalf("registering imported corpus: %v", err)
	}
	if info.ID != res.Corpus.Fingerprint() {
		t.Fatalf("registered ID %s != fingerprint %s", info.ID, res.Corpus.Fingerprint())
	}
	reloaded, _, err := reg.Resolve(info.ID)
	if err != nil {
		t.Fatalf("reloading imported corpus: %v", err)
	}
	if reloaded.Fingerprint() != res.Corpus.Fingerprint() {
		t.Fatalf("fingerprint changed across store round trip: %s != %s",
			reloaded.Fingerprint(), res.Corpus.Fingerprint())
	}
}

func FuzzImportJSONL(f *testing.F) {
	f.Add([]byte(`{"region":"ITA","ingredients":["tomato","basil"]}` + "\n"))
	f.Add([]byte(`{"region":"KOR","ingredients":["rice","garlic","sesame oil"]}` + "\n" +
		`{"region":123,"ingredients":["broken"]}` + "\n"))
	f.Add([]byte("\ufeff  \n{\"region\":\"FRA\",\"ingredients\":[\"butter\",\"flour\"]}\n"))
	f.Add([]byte(`{"region":"ITA","ingredients":[` + strings.Repeat(`"tomato",`, 50) + `"basil"]}`))
	f.Add([]byte("{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzImport(t, data, FormatJSONL)
		// The same bytes through the sniffer must never panic either
		// (they may parse differently — '{' routes to JSONL, the rest
		// to CSV).
		fuzzImport(t, data, FormatAuto)
	})
}

// FuzzParseRef drives the reference grammar — the string every corpus=
// parameter, delete path, and append path goes through — over arbitrary
// input. Invariants for every input:
//
//   - no panic;
//   - failure is total: a rejected reference yields zero values only;
//   - success is exclusive: exactly one of (name, id) is set — a
//     reference is a fingerprint or a name form, never both;
//   - a fingerprint result matches the fingerprint grammar and carries
//     no version; a name result passes ValidateName with version 0
//     (latest) or >= 1 (pinned);
//   - the canonical rendering of a parsed name@version re-parses to the
//     identical triple (the grammar round-trips).
func FuzzParseRef(f *testing.F) {
	for _, seed := range []string{
		"tiny",                      // bare name
		"tiny@3",                    // pinned version
		strings.Repeat("ab", 16),    // raw fingerprint
		strings.Repeat("AB", 16),    // uppercase hex is NOT a fingerprint
		"  padded \t",               // surrounding whitespace
		"",                          // empty
		"@",                         // version with no name
		"a@b@3",                     // '@' inside the name part
		"tiny@0",                    // versions are 1-based
		"tiny@-1",                   // negative version
		"tiny@99999999999999999999", // version overflows int
		"UPPER",                     // case outside the name grammar
		"-leading-dash",             // bad first rune
		"name with spaces",
		"\x00\xff@1",                    // binary garbage
		strings.Repeat("x", 200) + "@2", // name too long
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ref string) {
		name, version, id, err := parseRef(ref)
		if err != nil {
			if !errors.Is(err, ErrBadRef) {
				t.Fatalf("parseRef(%q) failed with untyped error %v", ref, err)
			}
			if name != "" || version != 0 || id != "" {
				t.Fatalf("parseRef(%q) returned partial results with error: %q %d %q", ref, name, version, id)
			}
			return
		}
		if (name == "") == (id == "") {
			t.Fatalf("parseRef(%q) = name %q, id %q: want exactly one set", ref, name, id)
		}
		if id != "" {
			if !hexIDRe.MatchString(id) {
				t.Fatalf("parseRef(%q) returned non-fingerprint id %q", ref, id)
			}
			if version != 0 {
				t.Fatalf("parseRef(%q) returned version %d with a fingerprint", ref, version)
			}
			return
		}
		if err := ValidateName(name); err != nil {
			t.Fatalf("parseRef(%q) accepted invalid name %q: %v", ref, name, err)
		}
		if version < 0 {
			t.Fatalf("parseRef(%q) returned negative version %d", ref, version)
		}
		if version >= 1 {
			n2, v2, id2, err2 := parseRef(fmt.Sprintf("%s@%d", name, version))
			if err2 != nil || n2 != name || v2 != version || id2 != "" {
				t.Fatalf("canonical %s@%d does not round-trip: %q %d %q, %v",
					name, version, n2, v2, id2, err2)
			}
		}
	})
}

func FuzzImportCSV(f *testing.F) {
	f.Add([]byte("region,ingredients\nITA,tomato|basil\nKOR,rice|garlic\n"))
	f.Add([]byte("title,region,country,ingredients\nragu,ITA,Italy,tomato|beef|red wine\n"))
	f.Add([]byte("region,ingredients\nITA,\"tomato|basil\n"))     // bare quote mid-stream
	f.Add([]byte("\ufeffregion,ingredients\nFRA,butter|flour\n")) // BOM header
	f.Add([]byte("ingredients\ntomato|basil\n"))                  // missing region column
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzImport(t, data, FormatCSV)
	})
}

// FuzzOpenFSManifest feeds arbitrary bytes to OpenFS as the manifest of
// a store directory holding two payloads, plus a file beside the store.
// Every input must end as an error or as a consistent store: each
// listed entry has a well-formed unique ID and a payload of its
// recorded size, the byte and entry totals match the listing, corpora/
// holds exactly the listed payloads (the rest went to quarantine), the
// file outside the store is untouched, and reopening changes nothing.
// No input may panic or leave a partly loaded store.
func FuzzOpenFSManifest(f *testing.F) {
	a, b := testID('a'), testID('b')
	payloads := map[string]string{a: "alpha", b: "bravo!!"}
	valid := fmt.Sprintf(`{"version":1,"entries":[`+
		`{"id":%q,"name":"x","version":1,"recipes":1,"regions":1,"bytes":5},`+
		`{"id":%q,"name":"x","version":2,"recipes":1,"regions":1,"bytes":7}]}`, a, b)
	f.Add([]byte(valid))
	f.Add([]byte(strings.Replace(valid, `"bytes":7`, `"bytes":8`, 1)))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "store")
		if err := os.MkdirAll(filepath.Join(dir, corporaDir), 0o755); err != nil {
			t.Fatal(err)
		}
		for id, data := range payloads {
			if err := os.WriteFile(filepath.Join(dir, corporaDir, id+payloadExt), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		outside := filepath.Join(root, "outside"+payloadExt)
		if err := os.WriteFile(outside, []byte("bravo!!"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := OpenFS(dir, 0)
		if data, rerr := os.ReadFile(outside); rerr != nil || string(data) != "bravo!!" {
			t.Fatalf("file outside the store disturbed: %q, %v", data, rerr)
		}
		if err != nil {
			return
		}
		infos, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		listed := make(map[string]bool)
		for _, info := range infos {
			if !hexIDRe.MatchString(info.ID) || listed[info.ID] {
				t.Fatalf("listed malformed or duplicate id %q", info.ID)
			}
			listed[info.ID] = true
			data, _, err := s.Get(info.ID)
			if err != nil || int64(len(data)) != info.Bytes {
				t.Fatalf("listed entry %s unreadable: %d bytes, %v", info.ID, len(data), err)
			}
			sum += info.Bytes
		}
		if used, n := s.Bytes(); used != sum || n != len(infos) {
			t.Fatalf("store accounts %d bytes in %d entries, listing has %d in %d", used, n, sum, len(infos))
		}
		files, err := os.ReadDir(filepath.Join(dir, corporaDir))
		if err != nil {
			t.Fatal(err)
		}
		for _, fe := range files {
			if !listed[strings.TrimSuffix(fe.Name(), payloadExt)] {
				t.Fatalf("unlisted payload %s left in %s", fe.Name(), corporaDir)
			}
		}
		if len(files) != len(infos) {
			t.Fatalf("%d payload files for %d entries", len(files), len(infos))
		}

		again, err := OpenFS(dir, 0)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if q := again.Quarantined(); len(q) != 0 {
			t.Fatalf("reopen quarantined %v", q)
		}
		reinfos, err := again.List()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(reinfos) != fmt.Sprint(infos) {
			t.Fatalf("reopen lists %v, want %v", reinfos, infos)
		}
	})
}
