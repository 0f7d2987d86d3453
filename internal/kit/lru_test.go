package kit

import "testing"

// put inserts a body at its byte length, the way the result cache does.
func put(c *LRU[[]byte], key, val string) { c.Put(key, []byte(val), int64(len(val))) }

func TestCachePutGet(t *testing.T) {
	c := NewLRU[[]byte](1024)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	put(c, "a", "alpha")
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("got (%q, %v)", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 5 || st.Entries != 1 {
		t.Fatalf("stats: hits=%d misses=%d used=%d entries=%d", st.Hits, st.Misses, st.Bytes, st.Entries)
	}
}

func TestCacheEvictsLRUUnderBudget(t *testing.T) {
	c := NewLRU[[]byte](10)
	put(c, "a", "aaaa") // 4 bytes
	put(c, "b", "bbbb") // 8 bytes total
	c.Get("a")          // a is now most recently used
	put(c, "c", "cccc") // 12 > 10: evict LRU (b)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); !ok {
			t.Fatalf("%s should have survived", key)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 8 {
		t.Fatalf("evictions=%d used=%d", st.Evictions, st.Bytes)
	}
}

func TestCacheRejectsOversizedBody(t *testing.T) {
	c := NewLRU[[]byte](4)
	put(c, "big", "too large")
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized body cached")
	}
	st := c.Stats()
	if st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("used=%d entries=%d", st.Bytes, st.Entries)
	}
}

func TestCacheZeroBudgetDisables(t *testing.T) {
	c := NewLRU[[]byte](0)
	put(c, "a", "x")
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-budget cache stored an entry")
	}
}
