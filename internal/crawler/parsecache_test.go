package crawler

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"configvalidator/internal/entity"
	"configvalidator/internal/lens"
	"configvalidator/internal/telemetry"
)

func treeResult(label string) *lens.Result {
	return &lens.Result{Kind: lens.KindTree}
}

func TestParseCacheLRUEviction(t *testing.T) {
	c := NewParseCache(2)
	m := telemetry.NewCollector()
	c.SetMetrics(m)
	sum := func(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

	c.put("ini", "/a", sum("a"), treeResult("a"))
	c.put("ini", "/b", sum("b"), treeResult("b"))
	if _, ok := c.get("ini", "/a", sum("a")); !ok {
		t.Fatal("a missing after insert")
	}
	// a is now most recently used; inserting c must evict b.
	c.put("ini", "/c", sum("c"), treeResult("c"))
	if _, ok := c.get("ini", "/b", sum("b")); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.get("ini", "/a", sum("a")); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.get("ini", "/c", sum("c")); !ok {
		t.Fatal("newest entry c missing")
	}

	stats := c.Stats()
	if stats.Entries != 2 || stats.Capacity != 2 {
		t.Errorf("entries/capacity = %d/%d, want 2/2", stats.Entries, stats.Capacity)
	}
	if stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", stats.Evictions)
	}
	if stats.Hits != 3 || stats.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", stats.Hits, stats.Misses)
	}
	if s := m.Snapshot(); s.ParseCacheHits != 3 || s.ParseCacheMisses != 1 || s.ParseCacheEvictions != 1 {
		t.Errorf("collector saw hits=%d misses=%d evictions=%d, want 3/1/1",
			s.ParseCacheHits, s.ParseCacheMisses, s.ParseCacheEvictions)
	}
}

func TestParseCacheKeyDiscriminates(t *testing.T) {
	c := NewParseCache(10)
	sum := sha256.Sum256([]byte("same content"))
	c.put("ini", "/etc/my.cnf", sum, treeResult("x"))
	// Same content under a different lens or path is a different parse:
	// lenses embed the source path in their output.
	if _, ok := c.get("keyvalue", "/etc/my.cnf", sum); ok {
		t.Error("cache conflated two lenses for the same content")
	}
	if _, ok := c.get("ini", "/etc/other.cnf", sum); ok {
		t.Error("cache conflated two paths for the same content")
	}
	if _, ok := c.get("ini", "/etc/my.cnf", sha256.Sum256([]byte("other content"))); ok {
		t.Error("cache conflated two contents for the same path")
	}
}

func TestParseCacheNilSafety(t *testing.T) {
	var c *ParseCache
	sum := sha256.Sum256([]byte("x"))
	if _, ok := c.get("ini", "/a", sum); ok {
		t.Error("nil cache reported a hit")
	}
	c.put("ini", "/a", sum, treeResult("a")) // must not panic
	c.SetMetrics(telemetry.NewCollector())   // must not panic
	if s := c.Stats(); s != (ParseCacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", s)
	}
}

// TestCrawlerSharesCachedResult proves the fleet-dedup property end to
// end: two entities carrying byte-identical files share one parsed
// Result, and differing content does not.
func TestCrawlerSharesCachedResult(t *testing.T) {
	cache := NewParseCache(0)
	c := New(nil, Options{Cache: cache})

	shared := []byte("Port 22\nPermitRootLogin no\n")
	e1 := entity.NewMem("host-1", entity.TypeHost)
	e1.AddFile("/etc/ssh/sshd_config", shared)
	e2 := entity.NewMem("host-2", entity.TypeHost)
	e2.AddFile("/etc/ssh/sshd_config", shared)
	e3 := entity.NewMem("host-3", entity.TypeHost)
	e3.AddFile("/etc/ssh/sshd_config", []byte("Port 2222\n"))

	crawl := func(e entity.Entity) *FileConfig {
		t.Helper()
		out, err := c.CrawlPaths(e, []string{"/etc/ssh"})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 {
			t.Fatalf("crawled %d files, want 1", len(out))
		}
		return out[0]
	}
	fc1, fc2, fc3 := crawl(e1), crawl(e2), crawl(e3)
	if fc1.Result != fc2.Result {
		t.Error("identical content across entities did not share one parsed Result")
	}
	if fc1.Result == fc3.Result {
		t.Error("different content shared a parsed Result")
	}
	stats := cache.Stats()
	if stats.Hits != 1 || stats.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", stats.Hits, stats.Misses)
	}
}

// TestCrawlerCacheSkipsParseErrors pins that failed parses are never
// cached: errors must be re-derived per occurrence so each report carries
// its own attribution.
func TestCrawlerCacheSkipsParseErrors(t *testing.T) {
	cache := NewParseCache(0)
	c := New(nil, Options{Cache: cache})
	bad := entity.NewMem("bad", entity.TypeHost)
	bad.AddFile("/etc/fstab", []byte("only two\n"))
	for i := 0; i < 2; i++ {
		out, err := c.CrawlPaths(bad, []string{"/etc/fstab"})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Err == nil {
			t.Fatalf("pass %d: expected one degraded file, got %+v", i, out)
		}
	}
	if stats := cache.Stats(); stats.Entries != 0 {
		t.Errorf("parse errors were cached: %d entries", stats.Entries)
	}
}

func TestParseCacheConcurrentAccess(t *testing.T) {
	cache := NewParseCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("/f%d", i%16)
				sum := sha256.Sum256([]byte(key))
				if _, ok := cache.get("ini", key, sum); !ok {
					cache.put("ini", key, sum, treeResult(key))
				}
			}
		}(w)
	}
	wg.Wait()
	stats := cache.Stats()
	if stats.Entries > 8 {
		t.Errorf("cache exceeded capacity: %d entries", stats.Entries)
	}
	if stats.Hits+stats.Misses != 8*200 {
		t.Errorf("lookups = %d, want %d", stats.Hits+stats.Misses, 8*200)
	}
}
