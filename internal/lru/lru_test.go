package lru

import (
	"fmt"
	"testing"
)

// TestGetRefreshesRecency: a Get moves its key to the front, so the
// next eviction takes the colder key instead.
func TestGetRefreshesRecency(t *testing.T) {
	c := New[string, string](2)
	c.Put("a", "A")
	c.Put("b", "B")
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", "C")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order wrong")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being refreshed")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

// TestPutExistingKeyRefreshes: re-putting a key updates the value and
// recency in place. It must never insert a duplicate entry, and the
// refreshed key must outlive a colder one when eviction comes.
func TestPutExistingKeyRefreshes(t *testing.T) {
	c := New[string, string](2)
	c.Put("a", "A1")
	c.Put("b", "B")
	c.Put("a", "A2") // refresh: b is now the LRU entry
	if got := c.Len(); got != 2 {
		t.Fatalf("Len after re-put = %d, want 2 (duplicate inserted)", got)
	}
	c.Put("c", "C")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; re-put did not refresh a's recency")
	}
	v, ok := c.Get("a")
	if !ok {
		t.Fatal("a evicted despite being refreshed by the re-put")
	}
	if v != "A2" {
		t.Fatalf("a = %q, want the re-put value A2", v)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestEvictionStaysBounded: a long run of puts never grows the cache
// past its bound, and the newest keys survive.
func TestEvictionStaysBounded(t *testing.T) {
	c := New[string, int](4)
	for i := 0; i < 40; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
		if got := c.Len(); got > 4 {
			t.Fatalf("Len = %d after put %d, want <= 4", got, i)
		}
	}
	if got := c.Len(); got != 4 {
		t.Fatalf("final Len = %d, want 4", got)
	}
	for i := 36; i < 40; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing; eviction removed a hot entry", i)
		}
	}
}

// TestPutReportsEviction: Put reports an eviction exactly when a new key
// takes the cache over its bound, and never for an in-place update. The
// shared evaluation cache counts its evictions from this report.
func TestPutReportsEviction(t *testing.T) {
	c := New[int, int](3)
	for i := 0; i < 3; i++ {
		if c.Put(i, i) {
			t.Fatalf("put %d evicted below the bound", i)
		}
	}
	for i := 0; i < 3; i++ {
		if c.Put(i, -i) {
			t.Fatalf("in-place update of %d reported an eviction", i)
		}
	}
	for i := 3; i < 10; i++ {
		if !c.Put(i, i) {
			t.Fatalf("put %d over the bound reported no eviction", i)
		}
		if got := c.Len(); got != 3 {
			t.Fatalf("Len = %d after put %d, want 3", got, i)
		}
	}
}
