package corpusstore

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cuisinevol/internal/ingest"
	"cuisinevol/internal/recipe"
)

// testCorpus builds a small resolvable corpus; vary seasoning to vary
// the fingerprint.
func testCorpus(t *testing.T, seasoning string) *recipe.Corpus {
	t.Helper()
	corpus, _, err := ingest.Ingest([]ingest.RawRecipe{
		{Region: "ITA", Ingredients: []string{"tomato", "basil", seasoning}},
		{Region: "KOR", Ingredients: []string{"rice", "garlic", seasoning}},
	}, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

func TestRegistryRegisterResolveDelete(t *testing.T) {
	reg, err := NewRegistry(NewMemStore(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := testCorpus(t, "oregano")
	info, err := reg.Register("kitchen", c1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Ref() != "kitchen@1" || info.ID != c1.Fingerprint() {
		t.Fatalf("first Register = %+v", info)
	}
	if info.Recipes != c1.Len() {
		t.Fatalf("Recipes = %d, want %d", info.Recipes, c1.Len())
	}

	// Same content, same name: idempotent, no new version.
	again, err := reg.Register("kitchen", c1)
	if err != nil || again.Ref() != "kitchen@1" {
		t.Fatalf("idempotent Register = (%+v, %v)", again, err)
	}
	// Same content, different name: conflict.
	if _, err := reg.Register("other", c1); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("cross-name Register = %v, want ErrNameTaken", err)
	}
	// New content under the same name: next version.
	c2 := testCorpus(t, "cumin")
	v2, err := reg.Register("kitchen", c2)
	if err != nil || v2.Ref() != "kitchen@2" {
		t.Fatalf("second version = (%+v, %v)", v2, err)
	}

	// Resolution: bare name = latest, @N = pinned, raw fingerprint works.
	for ref, want := range map[string]string{
		"kitchen":        c2.Fingerprint(),
		"kitchen@1":      c1.Fingerprint(),
		"kitchen@2":      c2.Fingerprint(),
		c1.Fingerprint(): c1.Fingerprint(),
	} {
		got, _, err := reg.Resolve(ref)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", ref, err)
		}
		if got.Fingerprint() != want {
			t.Fatalf("Resolve(%q) = %s, want %s", ref, got.Fingerprint(), want)
		}
	}
	for _, ref := range []string{"kitchen@3", "nope", testID('0')} {
		if _, _, err := reg.Resolve(ref); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Resolve(%q) = %v, want ErrNotFound", ref, err)
		}
	}

	// Delete v1; v2 remains the latest.
	if _, err := reg.Delete("kitchen@1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Resolve("kitchen@1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve of deleted version = %v", err)
	}
	if got, _, err := reg.Resolve("kitchen"); err != nil || got.Fingerprint() != c2.Fingerprint() {
		t.Fatalf("latest after delete = (%v, %v)", got, err)
	}

	stats := reg.Stats()
	if stats.Puts != 2 || stats.Deletes != 1 || stats.StoreEntries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRegistryRebuildsFromStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, "saffron")
	if _, err := reg.Register("durable", c); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: fresh store handle, fresh registry, cold memo.
	s2, err := OpenFS(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg2, err := NewRegistry(s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := reg2.Resolve("durable")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != c.Fingerprint() || info.Ref() != "durable@1" {
		t.Fatalf("restart-warm Resolve = (%s, %+v)", got.Fingerprint(), info)
	}
	if stats := reg2.Stats(); stats.Loads != 1 || stats.LoadedEntries != 1 {
		t.Fatalf("restart stats = %+v", stats)
	}
}

func TestRegistryDetectsCorruptLoad(t *testing.T) {
	s := NewMemStore(0)
	reg, err := NewRegistry(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, "paprika")
	// Store valid corpus bytes under the WRONG content ID, bypassing
	// Register, then resolve by that ID: the fingerprint check must trip.
	var buf = &writerBuffer{}
	if err := c.WriteJSONL(buf); err != nil {
		t.Fatal(err)
	}
	wrong := testID('e')
	if err := s.Put(Info{ID: wrong, Name: "evil", Version: 1}, buf.data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Resolve(wrong); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Resolve of mislabeled content = %v, want ErrCorrupt", err)
	}
	if stats := reg.Stats(); stats.LoadedEntries != 0 {
		t.Fatal("corrupt load was memoized")
	}
}

type writerBuffer struct{ data []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

// countingStore wraps a Store and counts Get calls, so tests can assert
// the singleflight contract: one load per fingerprint no matter how many
// concurrent Resolves race for it.
type countingStore struct {
	Store
	gets atomic.Int64
}

func (s *countingStore) Get(id string) ([]byte, Info, error) {
	s.gets.Add(1)
	return s.Store.Get(id)
}

// TestRegistrySingleflightLoad pins the tentpole's concurrency contract
// (run under -race in CI): N goroutines resolving a cold corpus trigger
// exactly one store read, and a corpus resolved before deletion stays
// usable after it.
func TestRegistrySingleflightLoad(t *testing.T) {
	mem := NewMemStore(0)
	seed, err := NewRegistry(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := testCorpus(t, "thyme")
	if _, err := seed.Register("flight", c); err != nil {
		t.Fatal(err)
	}

	// Fresh registry over a counting wrapper: the memo is cold, so the
	// first Resolve wave has to load from the store.
	cs := &countingStore{Store: mem}
	reg, err := NewRegistry(cs, nil)
	if err != nil {
		t.Fatal(err)
	}

	const n = 32
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		results [n]*recipe.Corpus
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _, errs[i] = reg.Resolve("flight")
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatal("concurrent Resolves returned distinct corpus values")
		}
	}
	if got := cs.gets.Load(); got != 1 {
		t.Fatalf("store Gets = %d, want exactly 1 (singleflight)", got)
	}
	stats := reg.Stats()
	if stats.Loads != 1 {
		t.Fatalf("stats.Loads = %d, want 1", stats.Loads)
	}
	if stats.LoadHits+stats.LoadMisses != n {
		t.Fatalf("hits %d + misses %d != %d resolves", stats.LoadHits, stats.LoadMisses, n)
	}

	// Deletion never invalidates a pinned corpus: the resolved value
	// keeps working after Delete, while new Resolves see ErrNotFound.
	pinned := results[0]
	if _, err := reg.Delete("flight"); err != nil {
		t.Fatal(err)
	}
	if pinned.Len() != c.Len() || pinned.Fingerprint() != c.Fingerprint() {
		t.Fatal("pinned corpus unusable after delete")
	}
	if _, _, err := reg.Resolve("flight"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve after delete = %v, want ErrNotFound", err)
	}
}

// TestRegistryConcurrentChurn hammers register/resolve/delete from many
// goroutines; -race is the assertion.
func TestRegistryConcurrentChurn(t *testing.T) {
	reg, err := NewRegistry(NewMemStore(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	seasonings := []string{"oregano", "cumin", "thyme", "saffron"}
	corpora := make([]*recipe.Corpus, len(seasonings))
	for i, s := range seasonings {
		corpora[i] = testCorpus(t, s)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("churn-%d", g%4)
			c := corpora[g%4]
			for iter := 0; iter < 25; iter++ {
				info, err := reg.Register(name, c)
				if err != nil && !errors.Is(err, ErrNameTaken) {
					t.Errorf("Register: %v", err)
					return
				}
				if err == nil {
					if got, _, rerr := reg.Resolve(info.ID); rerr == nil {
						_ = got.Len()
					}
				}
				_, _, _ = reg.Resolve(name)
				_, _ = reg.Delete(name)
			}
		}(g)
	}
	wg.Wait()
}

// gatedStore holds each Get after it has read the payload, so a test
// can act while a load is in flight.
type gatedStore struct {
	Store
	read    chan struct{} // one send per Get, after the read
	release chan struct{} // Gets return once this is closed
}

func (s *gatedStore) Get(id string) ([]byte, Info, error) {
	data, info, err := s.Store.Get(id)
	s.read <- struct{}{}
	<-s.release
	return data, info, err
}

// TestRegistryDeleteDuringLoadDoesNotResurrect: a corpus deleted while
// its load is in flight must not land in the memo when the load
// completes. The waiting Resolve still gets the corpus (it resolved
// before the delete), but afterwards nothing is memoized and a Resolve
// by fingerprint reports ErrNotFound.
func TestRegistryDeleteDuringLoadDoesNotResurrect(t *testing.T) {
	mem := NewMemStore(0)
	seed, err := NewRegistry(mem, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := seed.Register("r", testCorpus(t, "sumac"))
	if err != nil {
		t.Fatal(err)
	}
	gs := &gatedStore{Store: mem, read: make(chan struct{}, 1), release: make(chan struct{})}
	reg, err := NewRegistry(gs, nil)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := reg.Resolve("r")
		done <- err
	}()
	<-gs.read
	if _, err := reg.Delete("r"); err != nil {
		t.Fatal(err)
	}
	close(gs.release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight Resolve: %v", err)
	}

	if st := reg.Stats(); st.LoadedEntries != 0 || st.LoadedBytes != 0 || st.StoreEntries != 0 {
		t.Fatalf("deleted corpus resurrected in the memo: %+v", st)
	}
	if _, _, err := reg.Resolve(info.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(fingerprint) after delete = %v, want ErrNotFound", err)
	}
}

// TestRegistryMemoBudget streams appends — successive versions of one
// growing corpus — past a small memo budget. The memo stays within the
// budget, evicted versions reload from the store with their fingerprint
// verified, and a corpus pinned before its eviction stays usable.
func TestRegistryMemoBudget(t *testing.T) {
	ingredients := []string{"tomato", "basil", "rice", "garlic", "oregano", "cumin", "thyme", "saffron"}
	var raws []ingest.RawRecipe
	var versions []*recipe.Corpus
	for j := 0; j < 24; j++ {
		raws = append(raws, ingest.RawRecipe{
			Region:      []string{"ITA", "KOR"}[j%2],
			Ingredients: []string{ingredients[j%8], ingredients[(j+1)%8], ingredients[(j+3)%8]},
		})
		c, _, err := ingest.Ingest(raws, ingest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, c)
	}
	var last writerBuffer
	if err := versions[len(versions)-1].WriteJSONL(&last); err != nil {
		t.Fatal(err)
	}
	budget := 3 * int64(len(last.data)) // a few versions, far fewer than all

	reg, err := newRegistry(NewMemStore(0), nil, budget)
	if err != nil {
		t.Fatal(err)
	}
	checkBudget := func(when string) {
		t.Helper()
		if st := reg.Stats(); st.LoadedBytes > budget {
			t.Fatalf("%s: memo holds %d bytes, budget %d", when, st.LoadedBytes, budget)
		}
	}
	infos := make([]Info, len(versions))
	var pinned *recipe.Corpus
	for i, c := range versions {
		if infos[i], err = reg.Register("stream", c); err != nil {
			t.Fatal(err)
		}
		if infos[i].Version != i+1 {
			t.Fatalf("version %d registered as %s", i+1, infos[i].Ref())
		}
		checkBudget(fmt.Sprintf("after registering v%d", i+1))
		if i == 0 {
			if pinned, _, err = reg.Resolve("stream@1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := reg.Stats()
	if st.Evictions == 0 || st.LoadedEntries >= len(versions) {
		t.Fatalf("stream of %d versions never evicted: %+v", len(versions), st)
	}
	if pinned.Fingerprint() != infos[0].ID || pinned.Len() != versions[0].Len() {
		t.Fatal("corpus pinned before its eviction is unusable")
	}

	loads := st.Loads
	for i, info := range infos {
		got, gotInfo, err := reg.Resolve(info.Ref())
		if err != nil {
			t.Fatalf("Resolve(%s): %v", info.Ref(), err)
		}
		if got.Fingerprint() != info.ID || gotInfo.ID != info.ID || got.Len() != versions[i].Len() {
			t.Fatalf("Resolve(%s) = %s, want %s", info.Ref(), got.Fingerprint(), info.ID)
		}
		checkBudget("after resolving " + info.Ref())
	}
	if reg.Stats().Loads == loads {
		t.Fatal("evicted versions resolved without reloading from the store")
	}
}
