package qsched

import (
	"container/list"
	"sync"
)

// Cache is a thread-safe LRU result cache behind a Scheduler, so repeated
// queries are free no matter which door they arrive on. Values are shared
// on hit: treat them as read-only.
type Cache[R any] struct {
	mu  sync.Mutex
	max int
	// front = most recent
	//sw:guardedBy(mu)
	ll *list.List
	//sw:guardedBy(mu)
	byKey map[string]*list.Element
}

type cacheEntry[R any] struct {
	key string
	val R
}

// NewCache builds an LRU cache holding up to max entries. max <= 0 returns
// nil, which every user treats as "caching disabled".
func NewCache[R any](max int) *Cache[R] {
	if max <= 0 {
		return nil
	}
	return &Cache[R]{
		max:   max,
		ll:    list.New(),
		byKey: make(map[string]*list.Element, max),
	}
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache[R]) Get(key string) (R, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry[R]).val, true
	}
	var zero R
	return zero, false
}

// Add inserts (or refreshes) a value, evicting the least recently used
// entry when full.
func (c *Cache[R]) Add(key string, v R) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry[R]).val = v
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.max {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.byKey, oldest.Value.(*cacheEntry[R]).key)
		}
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry[R]{key: key, val: v})
}

// Len returns the number of cached entries.
func (c *Cache[R]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
