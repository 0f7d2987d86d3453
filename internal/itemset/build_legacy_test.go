package itemset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"cuisinevol/internal/ingredient"
)

// legacyBuildIndex is a frozen copy of the map-based index build that
// IndexBuilder replaced: a counts map, a position map and a
// string-keyed dedup map, one 4-byte hash write per item, fresh
// allocations per build. It is the oracle the builder identity tests
// compare against with reflect.DeepEqual — fingerprint, item order,
// first-occurrence dedup order, container choice, weight padding, byte
// accounting and even the nil-versus-empty shape of every slice — so it
// must never be edited to track production changes.
func legacyBuildIndex(txs [][]ingredient.ID, denseOnly bool) (*Index, error) {
	if err := validateTransactions(txs); err != nil {
		return nil, err
	}
	ix := &Index{n: len(txs)}

	h := sha256.New()
	var word [4]byte
	counts := make(map[ingredient.ID]int, 256)
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
			binary.LittleEndian.PutUint32(word[:], uint32(it))
			h.Write(word[:])
		}
		h.Write([]byte{0xff})
		ix.totalOcc += len(tx)
	}
	ix.fp = hex.EncodeToString(h.Sum(nil)[:16])

	ix.items = make([]itemCount, 0, len(counts))
	for it, c := range counts {
		ix.items = append(ix.items, itemCount{it, c})
	}
	sort.Slice(ix.items, func(i, j int) bool { return ix.items[i].item < ix.items[j].item })
	pos := make(map[ingredient.ID]int32, len(ix.items))
	for p, ic := range ix.items {
		pos[ic.item] = int32(p)
	}

	dedup := make(map[string]int32, len(txs))
	wide := len(ix.items) > 0xffff
	keyBuf := make([]byte, 0, 64)
	buf := make([]int32, 0, 64)
	var txArena []int32
	txOff := []int32{0}
	for _, tx := range txs {
		if len(tx) == 0 {
			continue
		}
		buf = buf[:0]
		for _, it := range tx {
			buf = append(buf, pos[it])
		}
		keyBuf = keyBuf[:0]
		if wide {
			for _, v := range buf {
				keyBuf = append(keyBuf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			}
		} else {
			for _, v := range buf {
				keyBuf = append(keyBuf, byte(v>>8), byte(v))
			}
		}
		if u, ok := dedup[string(keyBuf)]; ok {
			ix.weights[u]++
			continue
		}
		dedup[string(keyBuf)] = int32(len(ix.weights))
		txArena = append(txArena, buf...)
		txOff = append(txOff, int32(len(txArena)))
		ix.weights = append(ix.weights, 1)
	}

	ix.uniques = len(ix.weights)
	for _, w := range ix.weights {
		if w > 1 {
			ix.weighted = true
			break
		}
	}
	ix.words = (ix.uniques + 63) / 64
	legacyBuildPostings(ix, txArena, txOff, denseOnly)
	if ix.weighted {
		for len(ix.weights) < ix.words*64 {
			ix.weights = append(ix.weights, 0)
		}
	}
	ix.bytes = ix.accountBytes()
	return ix, nil
}

// legacyBuildPostings is the frozen two-pass container layout of the
// legacy build (see legacyBuildIndex).
func legacyBuildPostings(ix *Index, txArena, txOff []int32, denseOnly bool) {
	m := len(ix.items)
	ix.postKind = make([]containerKind, m)
	ix.postCard = make([]int32, m)
	ix.postOff = make([]int32, m)
	ix.postLen = make([]int32, m)
	if m == 0 {
		return
	}
	nruns := make([]int32, m)
	last := make([]int32, m)
	for i := range last {
		last[i] = -2
	}
	for t := 0; t+1 < len(txOff); t++ {
		for _, p := range txArena[txOff[t]:txOff[t+1]] {
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
	ix.idArena = make([]uint32, idLen)
	ix.bitsArena = make([]uint64, bitsLen)
	fill := nruns
	for i := range fill {
		fill[i] = 0
		last[i] = -2
	}
	for t := 0; t+1 < len(txOff); t++ {
		for _, p := range txArena[txOff[t]:txOff[t+1]] {
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
