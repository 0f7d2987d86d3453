package itemset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"sync"

	"cuisinevol/internal/ingredient"
)

// BuildIndex indexes a transaction database in a one-shot build:
// validation, item counting, the content fingerprint, transaction dedup
// and the full posting layout. Transactions must be sorted strictly
// ascending. The input slices are read, never retained or modified, and
// the returned Index owns all of its memory.
func BuildIndex(txs [][]ingredient.ID) (*Index, error) {
	ix, err := new(IndexBuilder).Build(txs)
	if err != nil {
		return nil, err
	}
	// A kept index (cached, served, snapshotted) retains exactly what it
	// uses: drop the growth slack of the slices the build appended to,
	// and the builder's query state, which concurrent queries could not
	// share anyway.
	ix.txArena, ix.txOff, ix.weights = slices.Clone(ix.txArena), slices.Clone(ix.txOff), slices.Clone(ix.weights)
	ix.query = nil
	return ix, nil
}

// buildIndexWith is BuildIndex with the posting layout pinned:
// denseOnly forces every container into the dense bitset format — the
// pre-container layout — which the dense×compressed differential suites
// use as the second side of the identity proof. Production callers
// always pass false.
func buildIndexWith(txs [][]ingredient.ID, denseOnly bool) (*Index, error) {
	ix, err := new(IndexBuilder).build(txs, denseOnly)
	if err != nil {
		return nil, err
	}
	ix.query = nil
	return ix, nil
}

// IndexBuilder is the package's one index-build implementation. Every
// mine goes through it: BuildIndex is a build into a fresh builder,
// Mine is a build followed by MineIndexed, and the replicate ensembles
// keep one builder per worker so back-to-back replicate indexes reuse
// the same arenas.
//
// The build holds no map. Counting and position lookup use dense
// slices indexed by id−minID; dedup is an open-addressing table over
// the position sequences, compared against the arena itself; the
// fingerprint is streamed through a fixed buffer. When the ID range is
// wide compared to the occurrence count (negative or scattered IDs),
// positions come from a sorted copy of the occurrences instead, so
// memory stays bounded by the input size. The Index is identical either
// way, and identical to a fresh build's — reflect.DeepEqual, nil and
// empty slices included — whatever the builder built before.
//
// The Index a Build returns aliases the builder's arenas: it is valid
// until that builder's next Build. Results mined from it never alias
// the arenas. The builder also owns the Eclat query state its indexes
// are mined with, so a builder's mines draw nothing from a
// process-global pool. The zero value is ready to use; an IndexBuilder
// is not safe for concurrent use.
type IndexBuilder struct {
	ix    *Index
	query eclatQuery

	// Arenas the Index fields are carved from, reused across builds.
	items     []itemCount
	txArena   []int32
	txOff     []int32
	weights   []int32
	postKind  []containerKind
	postCard  []int32
	postOff   []int32
	postLen   []int32
	idArena   []uint32
	bitsArena []uint64

	// Build scratch, never referenced by an Index.
	counts []int32         // occurrences per id−minID (dense range)
	slot   []int32         // item position per id−minID (dense range)
	sorted []ingredient.ID // every occurrence, sorted (wide range)
	table  []int32         // dedup slots: unique transaction + 1, 0 = empty
	hashes []uint64        // per unique transaction
	nruns  []int32         // per item position: run count, then fill cursor
	last   []int32         // per item position: last unique transaction seen
	sha    hash.Hash
	shaBuf [4096]byte
	sum    [sha256.Size]byte
	hexBuf [32]byte
}

// Dense-range bound: positions come from id-indexed slices while the ID
// span is at most denseSpanPerOcc slots per item occurrence plus
// denseSpanSlack, so the slices never outgrow a small multiple of the
// input; wider spans take the sorted fallback.
const (
	denseSpanPerOcc = 2
	denseSpanSlack  = 4096
)

// Build indexes txs; see BuildIndex for the input contract and
// IndexBuilder for the lifetime of the result.
func (b *IndexBuilder) Build(txs [][]ingredient.ID) (*Index, error) {
	return b.build(txs, false)
}

func (b *IndexBuilder) build(txs [][]ingredient.ID, denseOnly bool) (*Index, error) {
	// Pass 1: validate, measure the ID range and stream the fingerprint
	// (each item as 4 little-endian bytes, 0xff after every transaction).
	if b.sha == nil {
		b.sha = sha256.New()
	}
	b.sha.Reset()
	buf, fill := b.shaBuf[:], 0
	total, nonEmpty := 0, 0
	minID, maxID := ingredient.ID(math.MaxInt32), ingredient.ID(math.MinInt32)
	for i, tx := range txs {
		for j, it := range tx {
			if j > 0 && tx[j-1] >= it {
				return nil, errNotAscending(i)
			}
			if fill > len(buf)-4 {
				b.sha.Write(buf[:fill])
				fill = 0
			}
			binary.LittleEndian.PutUint32(buf[fill:], uint32(it))
			fill += 4
		}
		if fill == len(buf) {
			b.sha.Write(buf[:fill])
			fill = 0
		}
		buf[fill] = 0xff
		fill++
		if len(tx) > 0 {
			total += len(tx)
			nonEmpty++
			minID = min(minID, tx[0])
			maxID = max(maxID, tx[len(tx)-1])
		}
	}
	b.sha.Write(buf[:fill])
	hex.Encode(b.hexBuf[:], b.sha.Sum(b.sum[:0])[:16])

	// Pass 2: the item table in ascending ID order — a fixed,
	// threshold-independent order, so a transaction's ascending IDs map
	// to ascending positions.
	span := 0
	if total > 0 {
		span = int(int64(maxID) - int64(minID) + 1)
	}
	dense := span <= denseSpanPerOcc*total+denseSpanSlack
	var items []itemCount
	if dense {
		counts := zeroed(b.counts, span)
		for _, tx := range txs {
			for _, it := range tx {
				counts[it-minID]++
			}
		}
		distinct := 0
		for _, c := range counts {
			if c > 0 {
				distinct++
			}
		}
		slot := grown(b.slot, span)
		items = reuse(b.items, distinct)
		for k, c := range counts {
			if c > 0 {
				slot[k] = int32(len(items))
				items = append(items, itemCount{minID + ingredient.ID(k), int(c)})
			}
		}
		b.counts, b.slot = counts, slot
	} else {
		sorted := reuse(b.sorted, total)
		for _, tx := range txs {
			sorted = append(sorted, tx...)
		}
		slices.Sort(sorted)
		items = reuse(b.items, 0)
		for i := 0; i < len(sorted); {
			j := i + 1
			for j < len(sorted) && sorted[j] == sorted[i] {
				j++
			}
			items = append(items, itemCount{sorted[i], j - i})
			i = j
		}
		b.sorted = sorted
	}

	// Pass 3: dedup identical transactions into (transaction, weight)
	// pairs in first-occurrence order. Each transaction's positions are
	// appended to the arena, then looked up in the open-addressing table
	// by hash; a duplicate bumps its weight and is truncated away.
	size := 8
	for size < 2*nonEmpty {
		size <<= 1
	}
	table := zeroed(b.table, size)
	mask := uint64(size - 1)
	arena := reuse(b.txArena, total)
	off := append(reuse(b.txOff, nonEmpty+1), 0)
	weights, hashes := reuse(b.weights, nonEmpty), reuse(b.hashes, nonEmpty)
	for _, tx := range txs {
		if len(tx) == 0 {
			continue
		}
		start := len(arena)
		if dense {
			for _, it := range tx {
				arena = append(arena, b.slot[it-minID])
			}
		} else {
			for _, it := range tx {
				arena = append(arena, itemPosition(items, it))
			}
		}
		seq := arena[start:]
		h := hashPositions(seq)
		for i := h & mask; ; i = (i + 1) & mask {
			u := table[i] - 1
			if u < 0 {
				table[i] = int32(len(weights)) + 1
				hashes = append(hashes, h)
				weights = append(weights, 1)
				off = append(off, int32(len(arena)))
				break
			}
			if hashes[u] == h && slices.Equal(arena[off[u]:off[u+1]], seq) {
				weights[u]++
				arena = arena[:start]
				break
			}
		}
	}
	uniques := len(weights)
	weighted := slices.ContainsFunc(weights, func(w int32) bool { return w > 1 })
	words := (uniques + 63) / 64
	if weighted {
		// Pad to a whole word so the weighted intersect loop can index by
		// bit position without bounds branches.
		for len(weights) < words*64 {
			weights = append(weights, 0)
		}
	}
	b.items, b.txArena, b.txOff, b.weights, b.table, b.hashes = items, arena, off, weights, table, hashes

	if b.ix == nil {
		b.ix = new(Index)
	}
	ix := b.ix
	*ix = Index{
		n:        len(txs),
		totalOcc: total,
		items:    items,
		txOff:    off,
		uniques:  uniques,
		weighted: weighted,
		words:    words,
		fp:       string(b.hexBuf[:]),
		query:    &b.query,
	}
	if uniques > 0 {
		ix.txArena, ix.weights = arena, weights
	}
	b.buildPostings(ix, denseOnly)
	ix.bytes = ix.accountBytes()
	return ix, nil
}

// buildPostings lays out one posting container per item over the unique
// transaction ids, every item included: filtering to the frequent
// subset is the query phase's job, and changing the threshold must not
// trigger a rebuild. Two passes over the arena: the first measures each
// item's exact cardinality and run count and picks its container, the
// second fills the two shared arenas. denseOnly pins every container to
// the bitset format (test hook, see buildIndexWith).
func (b *IndexBuilder) buildPostings(ix *Index, denseOnly bool) {
	m := len(ix.items)
	ix.postKind = zeroed(b.postKind, m)
	ix.postCard = zeroed(b.postCard, m)
	ix.postOff = zeroed(b.postOff, m)
	ix.postLen = zeroed(b.postLen, m)
	b.postKind, b.postCard, b.postOff, b.postLen = ix.postKind, ix.postCard, ix.postOff, ix.postLen
	if m == 0 {
		return
	}

	nruns, last := zeroed(b.nruns, m), grown(b.last, m)
	b.nruns, b.last = nruns, last
	for i := range last {
		last[i] = -2
	}
	for t := 0; t+1 < len(ix.txOff); t++ {
		for _, p := range ix.txArena[ix.txOff[t]:ix.txOff[t+1]] {
			ix.postCard[p]++
			if last[p] != int32(t)-1 {
				nruns[p]++
			}
			last[p] = int32(t)
		}
	}

	idLen, bitsLen := 0, 0
	for p := 0; p < m; p++ {
		kind := choosePostingKind(int(ix.postCard[p]), int(nruns[p]), ix.words)
		if denseOnly {
			kind = containerBitset
		}
		ix.postKind[p] = kind
		switch kind {
		case containerArray:
			ix.postOff[p], ix.postLen[p] = int32(idLen), ix.postCard[p]
			idLen += int(ix.postCard[p])
		case containerRun:
			ix.postOff[p], ix.postLen[p] = int32(idLen), 2*nruns[p]
			idLen += int(2 * nruns[p])
		default:
			ix.postOff[p], ix.postLen[p] = int32(bitsLen), int32(ix.words)
			bitsLen += ix.words
		}
	}

	ix.idArena = zeroed(b.idArena, idLen)
	ix.bitsArena = zeroed(b.bitsArena, bitsLen)
	b.idArena, b.bitsArena = ix.idArena, ix.bitsArena
	fill := nruns // run/array fill cursors; the measuring pass is done with it
	for i := range fill {
		fill[i] = 0
		last[i] = -2
	}
	for t := 0; t+1 < len(ix.txOff); t++ {
		for _, p := range ix.txArena[ix.txOff[t]:ix.txOff[t+1]] {
			switch ix.postKind[p] {
			case containerArray:
				ix.idArena[ix.postOff[p]+fill[p]] = uint32(t)
				fill[p]++
			case containerRun:
				if last[p] == int32(t)-1 {
					ix.idArena[ix.postOff[p]+fill[p]-1]++
				} else {
					ix.idArena[ix.postOff[p]+fill[p]] = uint32(t)
					ix.idArena[ix.postOff[p]+fill[p]+1] = 1
					fill[p] += 2
				}
				last[p] = int32(t)
			default:
				ix.bitsArena[int(ix.postOff[p])+t>>6] |= 1 << uint(t&63)
			}
		}
	}
}

// hashPositions hashes one transaction's position sequence for the
// dedup table: FNV-style word mixing finished with the murmur3 fmix64
// avalanche, so the low bits the table masks with depend on every
// position.
func hashPositions(seq []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range seq {
		h = (h ^ uint64(uint32(p))) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// itemPosition returns the position of item it in the ascending item
// table — the wide-range position lookup.
func itemPosition(items []itemCount, it ingredient.ID) int32 {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if items[mid].item < it {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// reuse returns s emptied with room for n elements. It never returns
// nil, so an Index's always-present slices are non-nil even when empty
// and a reused build stays reflect.DeepEqual to a fresh one.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// grown returns s resized to n elements with unspecified contents.
func grown[T any](s []T, n int) []T {
	return reuse(s, n)[:n]
}

// zeroed returns s resized to n zero elements.
func zeroed[T any](s []T, n int) []T {
	s = grown(s, n)
	clear(s)
	return s
}

// Builders is a free list of IndexBuilders scoped to one fan-out: the
// caller declares one per request, each work item takes a builder with
// Get and returns it with Put, so the list never holds more builders
// than the fan-out ran concurrently, and all of them are garbage once
// the request is done. A process-global sync.Pool would instead keep
// the builders' arenas alive past the request. The zero value is an
// empty list; Builders is safe for concurrent use.
type Builders struct {
	mu   sync.Mutex
	free []*IndexBuilder
}

// Get returns a free builder, or a new one when all are in use.
func (l *Builders) Get() *IndexBuilder {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		b := l.free[n-1]
		l.free = l.free[:n-1]
		return b
	}
	return new(IndexBuilder)
}

// Put returns b to the list. The Index b last built is invalid from
// here on.
func (l *Builders) Put(b *IndexBuilder) {
	l.mu.Lock()
	l.free = append(l.free, b)
	l.mu.Unlock()
}
