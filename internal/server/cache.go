package server

import (
	"container/list"
	"sync"
)

// cache is the deterministic result cache: canonical spec hash → result
// bytes and their digest, LRU-evicted at a fixed entry bound. It holds
// only the compact form of each result; views are rendered from it.
// Because every job is a pure function of its normalized spec, a hit
// returns exactly the bytes a fresh run would produce — correctness is
// testable bit for bit.
type cache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

type cacheEntry struct {
	key string
	val []byte
	sha string // resultDigest(val)
}

func newCache(maxEntries int) *cache {
	if maxEntries < 1 {
		maxEntries = 256
	}
	return &cache{
		max:     maxEntries,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached bytes for key with their digest and refreshes
// the entry's recency.
func (c *cache) Get(key string) (val []byte, sha string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, "", false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.val, e.sha, true
}

// Put stores val and its digest sha under key, evicting the least
// recently used entry when the cache is full. Storing an existing key
// refreshes it.
func (c *cache) Put(key string, val []byte, sha string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.sha = val, sha
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, val: val, sha: sha})
	for c.order.Len() > c.max {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).key)
	}
}

// Len reports the entry count.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
