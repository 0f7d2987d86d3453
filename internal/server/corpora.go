package server

import (
	"errors"
	"net/http"
	"strings"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/ingest"
)

// This file is the corpus-management surface of the server: upload a
// raw recipe file and serve analytics against it immediately.
//
//	POST   /v1/corpora?name=<name>[&format=csv|jsonl]   import + register the request body
//	GET    /v1/corpora                                  list registered corpora
//	DELETE /v1/corpora/{id}                             delete by name, name@version or fingerprint
//
// Every analytics endpoint then takes corpus=<ref> to select what it
// computes against (see selectCorpus); the default corpus is untouchable
// by these verbs — it has no registry entry.

// corpusRow is one registered corpus in list/upload/delete responses.
type corpusRow struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Version int    `json:"version"`
	Ref     string `json:"ref"`
	Recipes int    `json:"recipes"`
	Regions int    `json:"regions"`
	Bytes   int64  `json:"bytes"`
}

func toCorpusRow(info corpusstore.Info) corpusRow {
	return corpusRow{
		ID:      info.ID,
		Name:    info.Name,
		Version: info.Version,
		Ref:     info.Ref(),
		Recipes: info.Recipes,
		Regions: info.Regions,
		Bytes:   info.Bytes,
	}
}

// uploadResponse is the POST /v1/corpora body: the registered identity
// plus the import accounting a client needs to judge data quality —
// including a structured sample of the records that failed.
type uploadResponse struct {
	Corpus      corpusRow                 `json:"corpus"`
	Stats       uploadStats               `json:"stats"`
	Skipped     int                       `json:"skipped_records"`
	ErrorSample []corpusstore.RecordIssue `json:"error_sample,omitempty"`
}

// uploadStats mirrors ingest.Stats with stable JSON names.
type uploadStats struct {
	RawRecipes       int     `json:"raw_records"`
	Accepted         int     `json:"accepted"`
	DroppedNoRegion  int     `json:"dropped_no_region"`
	DroppedTooSmall  int     `json:"dropped_too_small"`
	DroppedTooLarge  int     `json:"dropped_too_large"`
	Mentions         int     `json:"mentions"`
	ResolvedMentions int     `json:"resolved_mentions"`
	ResolutionRate   float64 `json:"resolution_rate"`
}

func toUploadStats(s ingest.Stats) uploadStats {
	return uploadStats{
		RawRecipes:       s.RawRecipes,
		Accepted:         s.Accepted,
		DroppedNoRegion:  s.DroppedNoRegion,
		DroppedTooSmall:  s.DroppedTooSmall,
		DroppedTooLarge:  s.DroppedTooLarge,
		Mentions:         s.Mentions,
		ResolvedMentions: s.ResolvedMentions,
		ResolutionRate:   s.ResolutionRate(),
	}
}

// corpusError maps the store's typed failures onto HTTP statuses:
// ErrNotFound → 404, ErrBadName/ErrBadRef → 400, ErrNameTaken → 409,
// ErrTooLarge → 413, ErrCorrupt → 500 (server-side data damage is never
// the client's fault). The mapping is pinned endpoint-by-endpoint by
// TestCorpusErrorMapping.
func corpusError(err error) error {
	switch {
	case errors.Is(err, corpusstore.ErrNotFound):
		return &httpError{status: http.StatusNotFound, msg: err.Error()}
	case errors.Is(err, corpusstore.ErrBadName), errors.Is(err, corpusstore.ErrBadRef):
		return &httpError{status: http.StatusBadRequest, msg: err.Error()}
	case errors.Is(err, corpusstore.ErrNameTaken):
		return &httpError{status: http.StatusConflict, msg: err.Error()}
	case errors.Is(err, corpusstore.ErrTooLarge):
		return &httpError{status: http.StatusRequestEntityTooLarge, msg: err.Error()}
	case errors.Is(err, corpusstore.ErrCorrupt):
		return &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return err
}

// handleCorpusUpload imports the request body (CSV or JSONL raw recipe
// records, streamed record-by-record) and registers the result under
// the required name parameter. Responds 201 with the fingerprint, the
// ingest statistics, and a sample of per-record errors.
func (s *Server) handleCorpusUpload(w http.ResponseWriter, r *http.Request) {
	q := newQuery(r)
	name := strings.TrimSpace(q.get("name"))
	if name == "" {
		s.writeError(w, badRequest("missing required parameter name"))
		return
	}
	if err := corpusstore.ValidateName(name); err != nil {
		s.writeError(w, corpusError(err))
		return
	}
	format, err := corpusstore.ParseFormat(q.get("format"))
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	res, err := corpusstore.Import(r.Body, corpusstore.ImportOptions{
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
	info, err := s.registry.Register(name, res.Corpus)
	if err != nil {
		s.writeError(w, corpusError(err))
		return
	}
	body, err := marshalDeterministic(uploadResponse{
		Corpus:      toCorpusRow(info),
		Stats:       toUploadStats(res.Stats),
		Skipped:     res.Skipped,
		ErrorSample: res.ErrorSample,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusCreated)
	w.Write(body)
}

// handleCorpusList returns every registered corpus plus the default
// corpus's fingerprint (the one corpus= selects when absent).
func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	infos, err := s.registry.List()
	if err != nil {
		s.writeError(w, err)
		return
	}
	rows := make([]corpusRow, len(infos))
	for i, info := range infos {
		rows[i] = toCorpusRow(info)
	}
	body, err := marshalDeterministic(map[string]any{
		"default": map[string]any{"id": s.fingerprint, "recipes": s.corpus.Len()},
		"corpora": rows,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
}

// handleCorpusDelete removes the corpus the path id names (a name,
// name@version, or fingerprint). In-flight requests that already
// resolved it finish against their pinned corpus — cached *results*
// stay valid (content-addressed keys, LRU aging) — but the deleted
// corpus's *index* entries are invalidated eagerly: index entries are
// large and fingerprint-keyed, so without explicit invalidation they
// would sit unreachable-but-resident until byte pressure. Invalidation
// never touches an *Index a query already holds (immutability makes
// removal equivalent to eviction), and the corpus's live write head, if
// any, is dropped with it.
func (s *Server) handleCorpusDelete(w http.ResponseWriter, r *http.Request) {
	info, err := s.registry.Delete(r.PathValue("id"))
	if err != nil {
		s.writeError(w, corpusError(err))
		return
	}
	invalidated := s.indexes.InvalidateFingerprint(info.ID)
	s.live.Take(info.ID)
	body, err := marshalDeterministic(map[string]any{
		"deleted":             toCorpusRow(info),
		"invalidated_indexes": invalidated,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
}
