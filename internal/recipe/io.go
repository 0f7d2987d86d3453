package recipe

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cuisinevol/internal/ingredient"
)

// WriteJSONL streams the corpus as JSON Lines: one recipe object per line.
// The format is stable and diff-friendly, suitable for large corpora.
func (c *Corpus) WriteJSONL(w io.Writer) error { return c.WriteJSONLFrom(w, 0) }

// WriteJSONLFrom streams the recipes at or after index from, which
// must lie in [0, Len], as WriteJSONL does. Each line depends only on
// its own recipe, so WriteJSONL's output is the first n recipes' lines
// followed by WriteJSONLFrom(w, n).
func (c *Corpus) WriteJSONLFrom(w io.Writer, from int) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range c.recipes[from:] {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("recipe: encoding recipe %d: %w", r.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a JSON Lines corpus written by WriteJSONL. Recipes are
// re-validated against lex and re-assigned dense IDs in input order.
func ReadJSONL(r io.Reader, lex *ingredient.Lexicon) (*Corpus, error) {
	c := NewCorpus(lex)
	dec := json.NewDecoder(bufio.NewReader(r))
	for line := 0; ; line++ {
		var rec Recipe
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("recipe: line %d: %w", line+1, err)
		}
		if err := c.Add(rec); err != nil {
			return nil, fmt.Errorf("recipe: line %d: %w", line+1, err)
		}
	}
	return c, nil
}

// WriteCSV writes the corpus in a human-readable CSV format with header
// "id,region,continent,name,ingredients", ingredients joined by '|' as
// canonical names.
func (c *Corpus) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "region", "continent", "name", "ingredients"}); err != nil {
		return err
	}
	for _, r := range c.recipes {
		names := make([]string, len(r.Ingredients))
		for i, id := range r.Ingredients {
			names[i] = c.lex.Name(id)
		}
		rec := []string{
			strconv.Itoa(r.ID), r.Region, r.Continent, r.Name,
			strings.Join(names, "|"),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
