package itemset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/bits"
	"slices"

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
	// uses: drop the growth slack of the weights, the one slice the build
	// appended to, and the builder's query state, which concurrent
	// queries could not share anyway.
	ix.weights = slices.Clone(ix.weights)
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
// keep one builder per worker so back-to-back replicate mines reuse the
// same arenas.
//
// Build and SpectrumOfSets are its two entries. Build takes strictly
// ascending transactions, fingerprints them and indexes every item, so
// its Index answers any support. SpectrumOfSets takes each
// transaction's items in any order, projects the transactions onto the
// items frequent at one support, mines that projection and returns its
// spectrum; the projected index never leaves the builder. Build dedups
// by item set and keeps unique transactions in first-occurrence order;
// SpectrumOfSets keeps every non-empty projected transaction, in input
// order, as its own unique transaction of weight 1.
//
// The build holds no map. Counting and position lookup use dense
// slices indexed by id−minID; dedup is an open-addressing table keyed
// by an order-independent hash (a sum of per-position random keys) and
// confirmed by a set compare against a per-position stamp. The pass
// that dedups also measures each item's posting cardinality and run
// count, so one more pass over the unique transactions' rows (their
// positions, kept in the builder's scratch) fills the containers. When
// the ID range is wide compared to the occurrence count (negative or
// scattered IDs), positions come from a sorted copy of the occurrences
// instead, so memory stays bounded by the input size. The Index is
// identical either way, and identical to a fresh build's —
// reflect.DeepEqual, nil and empty slices included — whatever the
// builder built before.
//
// The rows are build scratch: the Index keeps only its item table,
// weights and postings. The Index a build returns aliases the
// builder's arenas: it is valid until that builder's next build or
// spectrum. Results mined from it never alias the arenas. The builder
// also owns the Eclat query state its indexes are mined with, so a
// builder's mines draw nothing from a process-global pool. The zero
// value is ready to use; an IndexBuilder is not safe for concurrent
// use.
type IndexBuilder struct {
	ix    *Index
	query eclatQuery

	// Arenas the Index fields are carved from, reused across builds.
	items     []itemCount
	weights   []int32
	postKind  []containerKind
	postCard  []int32
	postOff   []int32
	postLen   []int32
	idArena   []uint32
	bitsArena []uint64

	// Build scratch, never referenced by an Index.
	rows   []int32         // unique transaction u's positions: rows[rowOff[u]:rowOff[u+1]]
	rowOff []int32         // per unique transaction, plus one
	counts []int32         // occurrences per id−minID (dense range)
	slot   []int32         // item position per id−minID (dense range)
	sorted []ingredient.ID // every occurrence, sorted (wide range)
	keys   []uint64        // per item position: its random dedup-hash key
	stamp  []int32         // per item position: 1 + the last transaction holding it
	table  []uint32        // dedup slots: hash tag | unique transaction + 1, 0 = empty
	nruns  []int32         // per item position: run count, then fill cursor
	last   []int32         // per item position: last unique transaction seen
	masks  []uint64        // projected transaction u's mask: masks[(u+1)*W:(u+2)*W]
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

// build is Build's core; denseOnly pins every container to the bitset
// format (test hook, see buildIndexWith).
func (b *IndexBuilder) build(txs [][]ingredient.ID, denseOnly bool) (*Index, error) {
	// Pass 1: validate and fingerprint, and measure the ID range from
	// each transaction's ends.
	if err := b.fingerprint(txs); err != nil {
		return nil, err
	}
	total, nonEmpty := 0, 0
	minID, maxID := ingredient.ID(math.MaxInt32), ingredient.ID(math.MinInt32)
	for _, tx := range txs {
		if len(tx) == 0 {
			continue
		}
		total += len(tx)
		nonEmpty++
		minID = min(minID, tx[0])
		maxID = max(maxID, tx[len(tx)-1])
	}

	// Pass 2: the item table in ascending ID order — a fixed,
	// threshold-independent order.
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
	b.items = items

	// Pass 3: dedup identical item sets into (transaction, weight) pairs
	// in first-occurrence order. Each transaction's positions are
	// stamped, summed into its hash and appended to the rows, then
	// looked up in the open-addressing table; a duplicate bumps its
	// weight and is truncated away, and a new unique transaction counts
	// towards its items' posting cardinalities and run counts.
	m := len(items)
	b.keys = slices.Grow(b.keys, max(m-len(b.keys), 0))
	for p := len(b.keys); p < m; p++ {
		b.keys = append(b.keys, mix64(uint64(p)+0x9e3779b97f4a7c15))
	}
	keys, slot := b.keys[:m], b.slot
	stamp := zeroed(b.stamp, m)
	card, nruns, last := zeroed(b.postCard, m), zeroed(b.nruns, m), grown(b.last, m)
	for p := range last {
		last[p] = -2
	}
	b.stamp, b.postCard, b.nruns, b.last = stamp, card, nruns, last
	size := 8
	for size < 2*nonEmpty {
		size <<= 1
	}
	table := zeroed(b.table, size)
	b.table = table
	mask := uint64(size - 1)
	// A slot keeps its unique transaction + 1 in the low ubits bits and
	// the top 32−ubits bits of the hash as a tag, so a probe reads no
	// other memory until the tags match, and the table stays half the
	// size of one that stored whole hashes; the hash's low bits pick the
	// slot. nonEmpty < 2³¹, so the tag keeps at least one bit.
	ubits := bits.Len32(uint32(nonEmpty))
	tagShift, tagMask := 64-(32-ubits), ^uint32(0)<<ubits
	rows := reuse(b.rows, total)
	rowOff := append(reuse(b.rowOff, nonEmpty+1), 0)
	weights := reuse(b.weights, nonEmpty)
	for i, tx := range txs {
		if len(tx) == 0 {
			continue
		}
		tok := int32(i) + 1
		start := len(rows)
		var h uint64
		for _, it := range tx {
			var p int32
			if dense {
				p = slot[it-minID]
			} else {
				p = itemPosition(items, it)
			}
			stamp[p] = tok
			h += keys[p]
			rows = append(rows, p)
		}
		seq, tag := rows[start:], uint32(h>>tagShift)<<ubits
		for s := h & mask; ; s = (s + 1) & mask {
			e := table[s]
			if e == 0 {
				u := int32(len(weights))
				table[s] = tag | uint32(u+1)
				weights = append(weights, 1)
				rowOff = append(rowOff, int32(len(rows)))
				for _, p := range seq {
					card[p]++
					// A new run unless p held the previous unique
					// transaction: d|-d is negative exactly when d != 0.
					d := last[p] - (u - 1)
					nruns[p] += int32(uint32(d|-d) >> 31)
					last[p] = u
				}
				break
			}
			if u := int32(e&^tagMask) - 1; e&tagMask == tag && stampedSet(rows[rowOff[u]:rowOff[u+1]], len(seq), stamp, tok) {
				weights[u]++
				rows = rows[:start]
				break
			}
		}
	}
	b.rows, b.rowOff = rows, rowOff

	ix := b.assemble(len(txs), total, items, weights, string(b.hexBuf[:]))
	b.buildPostings(ix, denseOnly)
	ix.bytes = ix.accountBytes()
	return ix, nil
}

// SpectrumOfSets returns the spectrum MineSpectrum gives at minSupport
// of an Index built over txs sorted, without building that index: one
// counting pass over item IDs in [0, bound), then the frequent-item
// projection of FP-Growth (Han, Pei & Yin, SIGMOD 2000). Each
// transaction becomes a mask of its items counted at least
// minCount(len(txs), minSupport), W = ⌈frequent/64⌉ words wide; each
// non-empty mask is one unweighted transaction, and the postings are
// filled straight from the masks and mined. A frequent set holds
// only frequent items, so the projection keeps every frequent set and
// its support; N stays len(txs), so a transaction that projects to
// nothing still counts.
//
// The items of a transaction may come in any order, as a model holds
// its recipes. An item outside [0, bound) is an error, and so is a
// transaction that repeats an item counted at the threshold; an item
// counted below it, repeats included, cannot be frequent, so its
// repeats cannot change the spectrum. The input slices are read, never
// retained or modified, and the spectrum owns its counts.
func (b *IndexBuilder) SpectrumOfSets(txs [][]ingredient.ID, bound int, minSupport float64) (Spectrum, error) {
	if minSupport <= 0 || minSupport > 1 {
		return Spectrum{}, ErrBadSupport
	}
	if bound < 0 {
		return Spectrum{}, fmt.Errorf("itemset: negative item bound %d", bound)
	}
	// Pass 1: count every item.
	counts := zeroed(b.counts, bound)
	b.counts = counts
	for i, tx := range txs {
		for _, it := range tx {
			if uint(it) >= uint(len(counts)) {
				return Spectrum{}, fmt.Errorf("itemset: transaction %d holds item %d outside [0, %d)", i, it, bound)
			}
			counts[it]++
		}
	}

	// The frequent items, ascending.
	mc := int32(min(minCount(len(txs), minSupport), math.MaxInt32))
	items, total := reuse(b.items, 0), 0
	for id, c := range counts {
		if c >= mc {
			items = append(items, itemCount{ingredient.ID(id), int(c)})
			total += int(c)
		}
	}
	b.items = items

	// Pass 2: project each transaction onto its frequent-item mask,
	// appended to the masks; an empty mask is truncated away. Every
	// other mask is one unique transaction of weight 1, so the projected
	// index is unweighted and Eclat intersects it with a plain AND and
	// popcount. Kept mask u is masks[(u+1)*w:(u+2)*w], after one
	// all-zero mask. A frequent item's slot is its position; every other
	// item's is 64*w, a bit in one spare word past the mask, so the loop
	// takes no branch, and a repeat shows as a mask holding fewer bits
	// than the frequent items the transaction lists.
	m := len(items)
	w := (m + 63) / 64
	spare := int32(64 * w)
	slot := grown(b.slot, bound)
	for id := range slot {
		slot[id] = spare
	}
	for p, ic := range items {
		slot[ic.item] = int32(p)
	}
	b.slot = slot
	masks := zeroed(b.masks, w)
	masks = slices.Grow(masks, w*len(txs)+1)
	weights := reuse(b.weights, 0)
	for i, tx := range txs {
		start := len(masks)
		masks = slices.Grow(masks, w+1)[:start+w+1]
		cur := masks[start:]
		clear(cur)
		n := 0
		for _, it := range tx {
			p := slot[it]
			cur[p>>6] |= 1 << (p & 63)
			n += int(uint32(p-spare) >> 31)
		}
		masks = masks[:start+w]
		if n == 0 {
			masks = masks[:start]
			continue
		}
		set := 0
		for _, x := range cur[:w] {
			set += bits.OnesCount64(x)
		}
		if set != n {
			for j, it := range tx {
				if slot[it] != spare && slices.Contains(tx[j+1:], it) {
					return Spectrum{}, fmt.Errorf("itemset: transaction %d repeats item %d", i, it)
				}
			}
		}
		weights = append(weights, 1)
	}
	b.masks = masks

	ix := b.assemble(len(txs), total, items, weights, "")
	b.transposePostings(ix, masks, w)
	return MineSpectrum(ix, minSupport, MineOptions{})
}

// transposePostings lays out the projected index's postings from its
// unique masks, unique u's at masks[(u+1)*w:(u+2)*w]. Sixty-four unique
// transactions at a time, each mask word's 64×64 bit block is
// transposed, so the masks become every item's bitmap over the unique
// transactions, written over the bits arena. Each bitmap's
// cardinality and run count pick its container as buildPostings does:
// a bitset keeps its bitmap, and an array or run container is decoded
// from it into the id arena.
func (b *IndexBuilder) transposePostings(ix *Index, masks []uint64, w int) {
	m, words := len(ix.items), ix.words
	dense := grown(b.bitsArena, m*words)
	var block [64]uint64
	for blk := 0; blk < words; blk++ {
		n := min(64, ix.uniques-64*blk)
		for k := 0; k < w; k++ {
			for j := 0; j < n; j++ {
				block[j] = masks[(64*blk+j+1)*w+k]
			}
			clear(block[n:])
			transpose64(&block)
			for i, x := range block[:min(64, m-64*k)] {
				dense[(64*k+i)*words+blk] = x
			}
		}
	}

	card := grown(b.postCard, m)
	kinds, off, ln := grown(b.postKind, m), grown(b.postOff, m), grown(b.postLen, m)
	idLen := 0
	for p := range kinds {
		c, runs, carry := 0, 0, uint64(0)
		for _, x := range dense[p*words : (p+1)*words] {
			c += bits.OnesCount64(x)
			runs += bits.OnesCount64(x &^ (x<<1 | carry))
			carry = x >> 63
		}
		card[p] = int32(c)
		kinds[p] = choosePostingKind(c, runs, words)
		switch kinds[p] {
		case containerArray:
			off[p], ln[p] = int32(idLen), int32(c)
			idLen += c
		case containerRun:
			off[p], ln[p] = int32(idLen), int32(2*runs)
			idLen += 2 * runs
		default:
			off[p], ln[p] = int32(p*words), int32(words)
		}
	}
	ids := grown(b.idArena, idLen)
	for p, kind := range kinds {
		if kind == containerBitset {
			continue
		}
		out := ids[off[p]:off[p]]
		for blk, x := range dense[p*words : (p+1)*words] {
			for ; x != 0; x &= x - 1 {
				t := uint32(64*blk + bits.TrailingZeros64(x))
				switch {
				case kind == containerArray:
					out = append(out, t)
				case len(out) > 0 && out[len(out)-2]+out[len(out)-1] == t:
					out[len(out)-1]++
				default:
					out = append(out, t, 1)
				}
			}
		}
	}
	b.postCard, b.postKind, b.postOff, b.postLen, b.idArena, b.bitsArena = card, kinds, off, ln, ids, dense
	ix.postCard, ix.postKind, ix.postOff, ix.postLen, ix.idArena, ix.bitsArena = card, kinds, off, ln, ids, dense
}

// transpose64 transposes the 64×64 bit matrix a in place: bit j of
// a[i] becomes bit i of a[j]. Each round swaps the off-diagonal
// half-blocks of every 2j×2j block, for j = 32 down to 1.
func transpose64(a *[64]uint64) {
	for j, m := 32, uint64(0x00000000ffffffff); j != 0; j, m = j>>1, m^(m<<(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// assemble carves the Index from an item table and the weights of its
// unique transactions, padding the weights of a weighted index; the
// caller lays out its postings.
func (b *IndexBuilder) assemble(n, total int, items []itemCount, weights []int32, fp string) *Index {
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
	b.weights = weights

	if b.ix == nil {
		b.ix = new(Index)
	}
	ix := b.ix
	*ix = Index{
		n:        n,
		totalOcc: total,
		items:    items,
		uniques:  uniques,
		weighted: weighted,
		words:    words,
		postCard: b.postCard,
		fp:       fp,
		query:    &b.query,
	}
	if uniques > 0 {
		ix.weights = weights
	}
	return ix
}

// fingerprint checks that every transaction ascends strictly and
// streams the fingerprint into hexBuf: each item as 4 little-endian
// bytes, 0xff after every transaction.
func (b *IndexBuilder) fingerprint(txs [][]ingredient.ID) error {
	if b.sha == nil {
		b.sha = sha256.New()
	}
	b.sha.Reset()
	buf, fill := b.shaBuf[:], 0
	for i, tx := range txs {
		for j, it := range tx {
			if j > 0 && tx[j-1] >= it {
				return errNotAscending(i)
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
	}
	b.sha.Write(buf[:fill])
	hex.Encode(b.hexBuf[:], b.sha.Sum(b.sum[:0])[:16])
	return nil
}

// stampedSet reports whether row holds exactly the n positions stamped
// tok: a row never repeats a position, so equal lengths and every
// position stamped mean equal sets.
func stampedSet(row []int32, n int, stamp []int32, tok int32) bool {
	if len(row) != n {
		return false
	}
	for _, p := range row {
		if stamp[p] != tok {
			return false
		}
	}
	return true
}

// buildPostings lays out one posting container per item over the unique
// transaction ids, every item included: filtering to the frequent
// subset is the query phase's job, and changing the threshold must not
// trigger a rebuild. The dedup pass measured each item's exact
// cardinality (ix.postCard) and run count (b.nruns); this picks each
// item's container, then one pass over the rows fills the two shared
// arenas. denseOnly pins every container to the bitset format.
func (b *IndexBuilder) buildPostings(ix *Index, denseOnly bool) {
	m := len(ix.items)
	ix.postKind = grown(b.postKind, m)
	ix.postOff = grown(b.postOff, m)
	ix.postLen = grown(b.postLen, m)
	b.postKind, b.postOff, b.postLen = ix.postKind, ix.postOff, ix.postLen
	if m == 0 {
		return
	}
	nruns, last := b.nruns, b.last

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
	kind, off, ids, bits := ix.postKind, ix.postOff, ix.idArena, ix.bitsArena
	for t := 0; t < ix.uniques; t++ {
		for _, p := range b.rows[b.rowOff[t]:b.rowOff[t+1]] {
			switch kind[p] {
			case containerArray:
				ids[off[p]+fill[p]] = uint32(t)
				fill[p]++
			case containerRun:
				if last[p] == int32(t)-1 {
					ids[off[p]+fill[p]-1]++
				} else {
					ids[off[p]+fill[p]] = uint32(t)
					ids[off[p]+fill[p]+1] = 1
					fill[p] += 2
				}
				last[p] = int32(t)
			default:
				bits[int(off[p])+t>>6] |= 1 << uint(t&63)
			}
		}
	}
}

// mix64 is the murmur3 fmix64 avalanche: it turns an item position into
// its dedup-hash key, so a transaction's key sum spreads over all 64
// bits whatever positions it holds.
func mix64(h uint64) uint64 {
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
