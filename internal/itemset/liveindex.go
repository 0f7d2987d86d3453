package itemset

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"cuisinevol/internal/ingredient"
)

// ErrUnknownTx is returned by LiveIndex.Delete for an id that was never
// assigned by Append or that has already been deleted.
var ErrUnknownTx = errors.New("itemset: unknown or already-deleted transaction id")

// LiveIndex is the mutable owner of a transaction database: the write
// side of the build-once Index. It is a log of owned transactions in
// arrival order with tombstones for deletes. Append and Delete cost
// O(delta), the transactions touched, never the corpus size; all index
// work is deferred to Snapshot.
//
// Snapshot is BuildIndex over the live transactions in arrival order,
// so a snapshot is byte-for-byte the Index a from-scratch build returns
// (same fingerprint, item table, unique-transaction order, arena,
// weight padding and posting layout) by construction. Every MineIndexed
// guarantee proved for built indexes therefore holds for snapshots
// verbatim; the metamorphic harness in live_diff_test.go checks it end
// to end.
//
// Snapshots share no mutable state with the LiveIndex: once returned,
// an *Index stays valid and byte-deterministic forever, no matter how
// many mutations follow. Repeated Snapshot calls at the same epoch
// return the same pointer.
//
// A LiveIndex is safe for concurrent use; mutations serialize behind an
// internal mutex while queries run lock-free against their snapshots.
type LiveIndex struct {
	mu sync.Mutex

	// log records every appended transaction in arrival order; deleted
	// entries are tombstoned in place and compacted once they outnumber
	// the live ones. Entries are id-sorted by construction (ids issue
	// sequentially), so lookup is a binary search — no id map to grow.
	log      []liveEntry
	nextID   int64
	live     int // live transactions, empties included
	dead     int // tombstones awaiting compaction
	totalOcc int // live item occurrences

	epoch     uint64 // bumped by every effective mutation
	snap      *Index // memoized snapshot for snapEpoch
	snapEpoch uint64

	appends, appendedTx, deletes, deletedTx, snapshots uint64
}

type liveEntry struct {
	id    int64
	items []ingredient.ID // strictly ascending; owned by the LiveIndex
	dead  bool
}

// LiveIndexStats is a snapshot of a LiveIndex's counters and shape.
type LiveIndexStats struct {
	Epoch         uint64 // mutations applied since creation
	Appends       uint64 // Append calls that appended at least one transaction
	AppendedTx    uint64 // transactions appended
	Deletes       uint64 // Delete calls that deleted at least one transaction
	DeletedTx     uint64 // transactions deleted
	Snapshots     uint64 // snapshot materializations (memoized hits excluded)
	Live          int    // live transactions, empties included
	Uniques       int    // distinct live transaction contents
	DistinctItems int    // distinct items across live transactions
	TotalOcc      int    // live item occurrences
}

// NewLiveIndex returns an empty LiveIndex.
func NewLiveIndex() *LiveIndex {
	return new(LiveIndex)
}

// Append adds transactions at the end of the live database and returns
// their assigned ids, one per transaction in order, for use with Delete.
// Transactions must be sorted strictly ascending (the contract every
// kernel enforces); the input slices are read, never retained. On error
// nothing is applied. Cost is O(total items appended).
func (li *LiveIndex) Append(txs [][]ingredient.ID) ([]int64, error) {
	if err := validateTransactions(txs); err != nil {
		return nil, err
	}
	ids := make([]int64, len(txs))
	if len(txs) == 0 {
		return ids, nil
	}
	// One owned copy of the whole batch, carved into capped per-entry
	// slices.
	occ := 0
	for _, tx := range txs {
		occ += len(tx)
	}
	buf := make([]ingredient.ID, 0, occ)

	li.mu.Lock()
	defer li.mu.Unlock()
	for i, tx := range txs {
		start := len(buf)
		buf = append(buf, tx...)
		ids[i] = li.nextID
		li.log = append(li.log, liveEntry{id: li.nextID, items: buf[start:len(buf):len(buf)]})
		li.nextID++
	}
	li.live += len(txs)
	li.totalOcc += occ
	li.epoch++
	li.appends++
	li.appendedTx += uint64(len(txs))
	return ids, nil
}

// Delete removes previously appended transactions by id. The call is
// atomic: if any id is unknown or already deleted (including a
// duplicate within ids itself), an error wrapping ErrUnknownTx is
// returned and nothing is applied. Cost is O(len(ids) log n), amortizing
// the occasional tombstone compaction.
func (li *LiveIndex) Delete(ids []int64) error {
	if len(ids) == 0 {
		return nil
	}
	li.mu.Lock()
	defer li.mu.Unlock()

	// Resolve every id before touching anything so failures are clean.
	pos := make([]int, len(ids))
	for i, id := range ids {
		p := sort.Search(len(li.log), func(j int) bool { return li.log[j].id >= id })
		if p == len(li.log) || li.log[p].id != id || li.log[p].dead {
			return fmt.Errorf("%w: %d", ErrUnknownTx, id)
		}
		pos[i] = p
	}
	slices.Sort(pos)
	for i := 1; i < len(pos); i++ {
		if pos[i] == pos[i-1] {
			return fmt.Errorf("%w: %d (duplicated in delete batch)", ErrUnknownTx, li.log[pos[i]].id)
		}
	}

	for _, p := range pos {
		e := &li.log[p]
		e.dead = true
		li.totalOcc -= len(e.items)
	}
	li.dead += len(pos)
	li.live -= len(pos)
	li.epoch++
	li.deletes++
	li.deletedTx += uint64(len(ids))

	// Dropping tombstones keeps arrival order, and with it every later
	// snapshot. O(len(log)) per run; the dead>len(log)/2 trigger makes it
	// amortized O(1) per delete.
	if li.dead > 64 && li.dead > len(li.log)/2 {
		li.log = slices.DeleteFunc(li.log, func(e liveEntry) bool { return e.dead })
		li.dead = 0
	}
	return nil
}

// Snapshot returns the immutable Index over the live transactions in
// arrival order: BuildIndex over the same database. The result is
// memoized per epoch: callers at the same epoch share one *Index, and a
// mutation invalidates only the memo — indexes already handed out stay
// valid and byte-deterministic forever.
//
// Materialization is O(live corpus); Append/Delete stay O(delta) by
// deferring all index work to this call.
func (li *LiveIndex) Snapshot() *Index {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.snapshotLocked()
}

func (li *LiveIndex) snapshotLocked() *Index {
	if li.snap != nil && li.snapEpoch == li.epoch {
		return li.snap
	}
	txs := make([][]ingredient.ID, 0, li.live)
	for _, e := range li.log {
		if !e.dead {
			txs = append(txs, e.items)
		}
	}
	ix, err := BuildIndex(txs)
	if err != nil {
		// Append validated every transaction in the log.
		panic(fmt.Sprintf("itemset: live log holds an invalid transaction: %v", err))
	}
	li.snap, li.snapEpoch = ix, li.epoch
	li.snapshots++
	return ix
}

// Epoch returns the mutation counter: it advances on every effective
// Append/Delete and pins which corpus state a Snapshot reflects.
func (li *LiveIndex) Epoch() uint64 {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.epoch
}

// Len returns the number of live transactions, empties included.
func (li *LiveIndex) Len() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.live
}

// Stats returns the counters and the current live shape. Uniques and
// DistinctItems are read off the epoch's snapshot, so Stats materializes
// one (counted in Snapshots) when the current epoch has none yet.
func (li *LiveIndex) Stats() LiveIndexStats {
	li.mu.Lock()
	defer li.mu.Unlock()
	ix := li.snapshotLocked()
	return LiveIndexStats{
		Epoch:         li.epoch,
		Appends:       li.appends,
		AppendedTx:    li.appendedTx,
		Deletes:       li.deletes,
		DeletedTx:     li.deletedTx,
		Snapshots:     li.snapshots,
		Live:          li.live,
		Uniques:       ix.uniques,
		DistinctItems: len(ix.items),
		TotalOcc:      li.totalOcc,
	}
}
