package itemset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"

	"cuisinevol/internal/ingredient"
)

// ErrUnknownTx is returned by LiveIndex.Delete for an id that was never
// assigned by Append or that has already been deleted.
var ErrUnknownTx = errors.New("itemset: unknown or already-deleted transaction id")

// LiveIndex is the mutable owner of a deduped weighted transaction
// database: the write side of the build-once Index. Append and Delete
// maintain the per-item support counts, the dedup table and the
// occurrence totals in O(delta) — the cost of a mutation is proportional
// to the transactions touched, never to the corpus size — and Snapshot
// materializes an immutable epoch-pinned *Index for the query phase.
//
// The snapshot contract is exact structural equivalence: Snapshot() is
// byte-for-byte the Index that BuildIndex would return over the live
// transactions in arrival order (same fingerprint, same item table, same
// unique-transaction order — first live occurrence — same arena, weight
// padding and bitmap layout). The metamorphic harness in
// live_diff_test.go holds the two paths to reflect.DeepEqual equality,
// so every MineIndexed guarantee proved for built indexes transfers to
// snapshots verbatim.
//
// Snapshots share no mutable state with the LiveIndex: once returned,
// an *Index stays valid and byte-deterministic forever, no matter how
// many mutations follow (copy-on-write by materialization). Repeated
// Snapshot calls at the same epoch return the same pointer.
//
// A LiveIndex is safe for concurrent use; mutations serialize behind an
// internal mutex while queries run lock-free against their snapshots.
type LiveIndex struct {
	mu sync.Mutex

	// log records every appended transaction in arrival order; deleted
	// entries are tombstoned in place and compacted once they outnumber
	// the live ones. Entries are id-sorted by construction (ids issue
	// sequentially), so lookup is a binary search — no id map to grow.
	log    []liveEntry
	nextID int64
	live   int // live transactions, empties included
	dead   int // tombstones awaiting compaction

	totalOcc int                   // live item occurrences
	counts   map[ingredient.ID]int // live support per item; zero entries removed

	// Unique live transaction contents. A slot's weight is the number of
	// live log entries referencing it; weight-0 slots stay in the dedup
	// table (an identical future append revives them) until compaction.
	slots []liveSlot
	dedup map[string]int32 // raw 4-byte item encoding -> slot

	keyBuf []byte

	epoch     uint64 // bumped by every effective mutation
	snap      *Index // memoized snapshot for snapEpoch
	snapEpoch uint64

	appends, appendedTx, deletes, deletedTx, snapshots uint64
}

type liveEntry struct {
	id   int64
	slot int32 // -1 for the empty transaction
	dead bool
}

type liveSlot struct {
	items  []ingredient.ID // strictly ascending; owned by the LiveIndex
	weight int32
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
	return &LiveIndex{
		counts: make(map[ingredient.ID]int, 256),
		dedup:  make(map[string]int32, 256),
	}
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

	li.mu.Lock()
	defer li.mu.Unlock()
	for i, tx := range txs {
		id := li.nextID
		li.nextID++
		ids[i] = id
		slot := int32(-1)
		if len(tx) > 0 {
			slot = li.slotFor(tx)
			li.slots[slot].weight++
			for _, it := range tx {
				li.counts[it]++
			}
			li.totalOcc += len(tx)
		}
		li.log = append(li.log, liveEntry{id: id, slot: slot})
		li.live++
	}
	li.epoch++
	li.appends++
	li.appendedTx += uint64(len(txs))
	return ids, nil
}

// slotFor returns the dedup slot holding tx's contents, creating one on
// first sight. Keys are the raw 4-byte item encoding — stable as the
// item universe grows, unlike the position encoding BuildIndex can use
// because its universe is frozen.
func (li *LiveIndex) slotFor(tx []ingredient.ID) int32 {
	li.keyBuf = li.keyBuf[:0]
	for _, it := range tx {
		li.keyBuf = binary.LittleEndian.AppendUint32(li.keyBuf, uint32(it))
	}
	if s, ok := li.dedup[string(li.keyBuf)]; ok {
		return s
	}
	s := int32(len(li.slots))
	li.slots = append(li.slots, liveSlot{items: append([]ingredient.ID(nil), tx...)})
	li.dedup[string(li.keyBuf)] = s
	return s
}

// Delete removes previously appended transactions by id. The call is
// atomic: if any id is unknown or already deleted (including a
// duplicate within ids itself), an error wrapping ErrUnknownTx is
// returned and nothing is applied. Cost is O(len(ids) log n + items
// removed), amortizing the occasional tombstone compaction.
func (li *LiveIndex) Delete(ids []int64) error {
	if len(ids) == 0 {
		return nil
	}
	li.mu.Lock()
	defer li.mu.Unlock()

	// Resolve every id before touching anything so failures are clean.
	pos := make([]int, len(ids))
	seen := make(map[int64]struct{}, len(ids))
	for i, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: %d (duplicated in delete batch)", ErrUnknownTx, id)
		}
		seen[id] = struct{}{}
		p := sort.Search(len(li.log), func(j int) bool { return li.log[j].id >= id })
		if p == len(li.log) || li.log[p].id != id || li.log[p].dead {
			return fmt.Errorf("%w: %d", ErrUnknownTx, id)
		}
		pos[i] = p
	}

	for _, p := range pos {
		e := &li.log[p]
		e.dead = true
		li.dead++
		li.live--
		if e.slot >= 0 {
			sl := &li.slots[e.slot]
			sl.weight--
			for _, it := range sl.items {
				if li.counts[it]--; li.counts[it] == 0 {
					delete(li.counts, it)
				}
			}
			li.totalOcc -= len(sl.items)
		}
	}
	li.epoch++
	li.deletes++
	li.deletedTx += uint64(len(ids))

	if li.dead > 64 && li.dead > len(li.log)/2 {
		li.compact()
	}
	return nil
}

// compact drops tombstoned log entries and garbage-collects weight-0
// slots, rebuilding the dedup table over the survivors. Slots are
// re-emitted in first-live-occurrence order — the same order Snapshot
// walks — keeping slot ids dense. O(live) per run; the dead>live/2
// trigger makes it amortized O(1) per delete.
func (li *LiveIndex) compact() {
	newLog := make([]liveEntry, 0, li.live)
	newSlots := make([]liveSlot, 0, len(li.slots))
	remap := make([]int32, len(li.slots))
	for i := range remap {
		remap[i] = -1
	}
	for _, e := range li.log {
		if e.dead {
			continue
		}
		if e.slot >= 0 {
			if remap[e.slot] < 0 {
				remap[e.slot] = int32(len(newSlots))
				newSlots = append(newSlots, li.slots[e.slot])
			}
			e.slot = remap[e.slot]
		}
		newLog = append(newLog, e)
	}
	dedup := make(map[string]int32, len(newSlots))
	for s := range newSlots {
		li.keyBuf = li.keyBuf[:0]
		for _, it := range newSlots[s].items {
			li.keyBuf = binary.LittleEndian.AppendUint32(li.keyBuf, uint32(it))
		}
		dedup[string(li.keyBuf)] = int32(s)
	}
	li.log, li.slots, li.dedup = newLog, newSlots, dedup
	li.dead = 0
}

// Snapshot returns the immutable Index over the live transactions in
// arrival order, structurally identical to BuildIndex over the same
// database. The result is memoized per epoch: callers at the same epoch
// share one *Index, and a mutation invalidates only the memo — indexes
// already handed out stay valid and byte-deterministic forever.
//
// Materialization is O(live corpus); Append/Delete stay O(delta) by
// deferring all snapshot work to this call.
func (li *LiveIndex) Snapshot() *Index {
	li.mu.Lock()
	defer li.mu.Unlock()
	if li.snap != nil && li.snapEpoch == li.epoch {
		return li.snap
	}

	ix := &Index{n: li.live, totalOcc: li.totalOcc}

	// Fingerprint over the live transactions in arrival order — the
	// exact bytes BuildIndex hashes for the equivalent frozen corpus.
	h := sha256.New()
	var word [4]byte
	for _, e := range li.log {
		if e.dead {
			continue
		}
		if e.slot >= 0 {
			for _, it := range li.slots[e.slot].items {
				binary.LittleEndian.PutUint32(word[:], uint32(it))
				h.Write(word[:])
			}
		}
		h.Write([]byte{0xff})
	}
	ix.fp = hex.EncodeToString(h.Sum(nil)[:16])

	// Item table ascending by ID, positions after it — as BuildIndex.
	ix.items = make([]itemCount, 0, len(li.counts))
	for it, c := range li.counts {
		ix.items = append(ix.items, itemCount{it, c})
	}
	sort.Slice(ix.items, func(i, j int) bool { return ix.items[i].item < ix.items[j].item })
	ix.pos = make(map[ingredient.ID]int32, len(ix.items))
	for p, ic := range ix.items {
		ix.pos[ic.item] = int32(p)
	}

	// Unique transactions in first-live-occurrence order: the walk over
	// the log reproduces BuildIndex's first-occurrence dedup order over
	// the equivalent input exactly.
	emitted := make([]int32, len(li.slots))
	for i := range emitted {
		emitted[i] = -1
	}
	ix.txOff = append(ix.txOff, 0)
	for _, e := range li.log {
		if e.dead || e.slot < 0 {
			continue
		}
		if u := emitted[e.slot]; u >= 0 {
			ix.weights[u]++
			continue
		}
		emitted[e.slot] = int32(len(ix.weights))
		for _, it := range li.slots[e.slot].items {
			ix.txArena = append(ix.txArena, ix.pos[it])
		}
		ix.txOff = append(ix.txOff, int32(len(ix.txArena)))
		ix.weights = append(ix.weights, 1)
	}
	// Container layout, weight padding and byte accounting are the one
	// shared finalize pass — container choice is a pure function of each
	// tidset, so the snapshot's postings match BuildIndex's structurally,
	// not just semantically (pinned by the live differential suite).
	var b IndexBuilder
	b.finalize(ix, false)

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

// Stats returns a snapshot of the counters and the current live shape.
func (li *LiveIndex) Stats() LiveIndexStats {
	li.mu.Lock()
	defer li.mu.Unlock()
	uniques := 0
	for _, sl := range li.slots {
		if sl.weight > 0 {
			uniques++
		}
	}
	return LiveIndexStats{
		Epoch:         li.epoch,
		Appends:       li.appends,
		AppendedTx:    li.appendedTx,
		Deletes:       li.deletes,
		DeletedTx:     li.deletedTx,
		Snapshots:     li.snapshots,
		Live:          li.live,
		Uniques:       uniques,
		DistinctItems: len(li.counts),
		TotalOcc:      li.totalOcc,
	}
}
