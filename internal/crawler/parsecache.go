package crawler

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"configvalidator/internal/lens"
	"configvalidator/internal/telemetry"
)

// parseKey addresses one cached parse: the lens that produced it, the file
// path inside the entity, and the SHA-256 of the raw content. The content
// hash is what makes the cache fleet-scoped — identical files across
// thousands of images (the common case for /etc payloads, per ConfEx's
// cloud-scale observation) collapse to one parse. The path participates in
// the key because lenses embed the source path into the normalized output
// (tree roots, table File fields), so one content parsed under two names
// must not share a Result.
type parseKey struct {
	lens string
	path string
	sum  [sha256.Size]byte
}

// ParseCache is a bounded, content-addressed cache of normalized parse
// results, shared across every entity scanned through one crawler — the
// fleet-wide deduplication layer. Safe for concurrent use by any number of
// fleet workers.
//
// Cached Results are shared and must be treated as immutable; the rule
// engine only queries them. Eviction is LRU by entry count.
type ParseCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	entries  map[parseKey]*list.Element

	hits, misses, evictions int64

	metrics *telemetry.Collector
}

type parseCacheEntry struct {
	key parseKey
	res *lens.Result
}

// DefaultParseCacheSize bounds a cache constructed with capacity <= 0.
const DefaultParseCacheSize = 4096

// NewParseCache creates a cache holding at most capacity parsed files;
// capacity <= 0 uses DefaultParseCacheSize.
func NewParseCache(capacity int) *ParseCache {
	if capacity <= 0 {
		capacity = DefaultParseCacheSize
	}
	return &ParseCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[parseKey]*list.Element),
	}
}

// SetMetrics attaches a collector for the hit/miss/eviction counters. A
// nil collector (the default) keeps counting internally only.
func (c *ParseCache) SetMetrics(m *telemetry.Collector) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.metrics = m
	c.mu.Unlock()
}

// get returns the cached result for (lensName, path, content-sum), if any.
// The caller hashes once and reuses the sum for the paired put.
func (c *ParseCache) get(lensName, path string, sum [sha256.Size]byte) (*lens.Result, bool) {
	if c == nil {
		return nil, false
	}
	key := parseKey{lens: lensName, path: path, sum: sum}
	c.mu.Lock()
	el, ok := c.entries[key]
	var res *lens.Result
	if ok {
		c.ll.MoveToFront(el)
		c.hits++
		c.metrics.Add(telemetry.ParseCacheHits, 1)
		res = el.Value.(*parseCacheEntry).res
	} else {
		c.misses++
		c.metrics.Add(telemetry.ParseCacheMisses, 1)
	}
	c.mu.Unlock()
	return res, ok
}

// put stores a parse result, evicting the least recently used entry when
// the cache is full. Parse failures are never cached: an error must be
// re-derived (and re-attributed) per file occurrence.
func (c *ParseCache) put(lensName, path string, sum [sha256.Size]byte, res *lens.Result) {
	if c == nil || res == nil {
		return
	}
	key := parseKey{lens: lensName, path: path, sum: sum}
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Lost a race with a concurrent parse of the same content; keep
		// the incumbent so every sharer sees one canonical Result.
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&parseCacheEntry{key: key, res: res})
		c.entries[key] = el
		if c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.entries, oldest.Value.(*parseCacheEntry).key)
			c.evictions++
			c.metrics.Add(telemetry.ParseCacheEvictions, 1)
		}
	}
	c.mu.Unlock()
}

// ParseCacheStats is a point-in-time copy of a cache's counters.
type ParseCacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped at
	// capacity. Entries and Capacity describe current occupancy.
	Hits, Misses, Evictions int64
	Entries, Capacity       int
}

// Stats copies the current counters.
func (c *ParseCache) Stats() ParseCacheStats {
	if c == nil {
		return ParseCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ParseCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
	}
}
