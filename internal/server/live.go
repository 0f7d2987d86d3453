package server

import (
	"net/http"
	"strings"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/ingest"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/recipe"
)

// This file is the incremental-mining surface: POST
// /v1/corpora/{id}/append streams records through the importer into a
// new corpus version whose whole-corpus index is derived from the
// parent's LiveIndex head.
//
// The server keeps a small set of live heads keyed by corpus
// fingerprint: appending to a corpus takes its head (or seeds one from
// the parent on first touch), applies the delta, snapshots, re-keys the
// head under the child fingerprint and inserts the snapshot into the
// IndexCache under IndexKey(childFP, "", false) — the exact key
// experiment.ViewIndex uses. A snapshot is BuildIndex over the head's log, so it
// is exactly what a from-scratch build would cache there and queries
// cannot tell the two paths apart. Only the whole-corpus ingredient
// index rides the head. Region and category views are not built here:
// on the first query, experiment.ViewIndex carries the parent's index
// of a region the append did not touch, and builds the others.
//
// Heads stay because the log already holds the lineage's transactions:
// an append adds only the delta, where a headless append would first
// re-extract the child's AllView().Transactions() from its recipes, a
// pass of ~0.1 s at paper scale (158,460 recipes, 2-vCPU VM).

// maxLiveHeads bounds how many corpus lineages keep a warm write head:
// it is the budget of the server's live LRU, where each head costs 1.
// Beyond it the oldest head is dropped and the next append to that
// lineage re-seeds (correct either way, just O(n) once). Because an
// append takes its parent's head out before putting the child's back,
// least recently used is oldest inserted.
const maxLiveHeads = 8

// appendIndexInfo is the "index" object in the append response: how the
// child's index was derived.
type appendIndexInfo struct {
	Incremental bool   `json:"incremental"` // false when the head had to be seeded O(n) first
	Epoch       uint64 `json:"epoch"`       // the head's epoch after the delta
	AppendedTx  int    `json:"appended_transactions"`
}

// appendResponse is the POST /v1/corpora/{id}/append body: the upload
// accounting plus how the index was derived.
type appendResponse struct {
	Corpus      corpusRow                 `json:"corpus"`
	Parent      corpusRow                 `json:"parent"`
	Stats       uploadStats               `json:"stats"`
	Skipped     int                       `json:"skipped_records"`
	ErrorSample []corpusstore.RecordIssue `json:"error_sample,omitempty"`
	Index       appendIndexInfo           `json:"index"`
}

// handleCorpusAppend streams the request body (CSV or JSONL raw recipe
// records) onto the referenced corpus, registering the result as the
// next version under the parent's name. The parent is never mutated —
// queries pinned to it, and its cache entries, stay valid; the child's
// whole-corpus index is derived incrementally from the parent's live
// head and placed in the IndexCache before the response returns, so the
// first query against the new version is already warm.
func (s *Server) handleCorpusAppend(w http.ResponseWriter, r *http.Request) {
	ref := strings.TrimSpace(r.PathValue("id"))
	parent, info, err := s.registry.Resolve(ref)
	if err != nil {
		s.writeError(w, corpusError(err))
		return
	}
	format, err := corpusstore.ParseFormat(newQuery(r).get("format"))
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	res, err := corpusstore.Append(parent, r.Body, corpusstore.ImportOptions{
		Format:        format,
		Ingest:        ingest.Options{Lexicon: s.registry.Lexicon()},
		MaxTotalBytes: s.opts.MaxUploadBytes,
	})
	if err != nil {
		s.writeError(w, corpusError(err))
		return
	}
	if res.Stats.Accepted == 0 {
		s.writeError(w, badRequest("no records were accepted (%d seen, %d skipped for errors)",
			res.Stats.RawRecipes, res.Skipped))
		return
	}
	childInfo, err := s.registry.Register(info.Name, res.Corpus)
	if err != nil {
		s.writeError(w, corpusError(err))
		return
	}
	ixInfo, err := s.appendLive(parent, info.ID, res.Corpus, childInfo.ID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	body, err := marshalDeterministic(appendResponse{
		Corpus:      toCorpusRow(childInfo),
		Parent:      toCorpusRow(info),
		Stats:       toUploadStats(res.Stats),
		Skipped:     res.Skipped,
		ErrorSample: res.ErrorSample,
		Index:       ixInfo,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusCreated)
	w.Write(body)
}

// appendLive advances the parent's live head by the child's delta and
// caches the resulting epoch snapshot under the child fingerprint. When
// no head is warm for the parent (first append to this lineage, restart,
// or head eviction) one is seeded from the parent's transactions — the
// only O(parent) step; every subsequent append along the lineage costs
// O(delta) plus the snapshot materialization.
func (s *Server) appendLive(parent *recipe.Corpus, parentFP string, child *recipe.Corpus, childFP string) (appendIndexInfo, error) {
	li, warm := s.live.Take(parentFP)
	if !warm {
		li = itemset.NewLiveIndex()
		if _, err := li.Append(parent.AllView().Transactions()); err != nil {
			return appendIndexInfo{}, err
		}
		s.metrics.liveSeeds.Add(1)
	}
	delta := child.TailView(parent.Len()).Transactions()
	if _, err := li.Append(delta); err != nil {
		return appendIndexInfo{}, err
	}
	snap := li.Snapshot()
	s.live.Put(childFP, li, 1)
	s.indexes.Put(itemset.IndexKey(childFP, "", false), snap)
	s.metrics.liveAppends.Add(1)
	s.metrics.liveAppendedTx.Add(uint64(len(delta)))
	s.metrics.liveSnapshots.Add(1)
	return appendIndexInfo{
		Incremental: warm,
		Epoch:       li.Epoch(),
		AppendedTx:  len(delta),
	}, nil
}
