// Package crawler implements the Config Extractor stage of ConfigValidator
// (§3.1): it walks an entity's configuration search paths, selects a lens
// for each discovered file, and produces normalized configuration data plus
// the file metadata that path rules assert on. It is the Go analogue of the
// agentless system crawler the paper builds on [1].
package crawler

import (
	"errors"
	"fmt"
	"sort"

	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/lens"
)

// FileConfig is one discovered configuration file, normalized.
type FileConfig struct {
	// Path is the file's path inside the entity.
	Path string
	// LensName is the lens that parsed the file.
	LensName string
	// Result is the normalized tree or table; nil when Err is set.
	Result *lens.Result
	// Info is the file's metadata.
	Info entity.FileInfo
	// Err records a parse failure; the rule engine surfaces it as an
	// error-grade validation result rather than aborting the scan.
	Err error
}

// Options tune a crawl.
type Options struct {
	// MaxFileSize skips files larger than this many bytes (0 = 16 MiB).
	MaxFileSize int64
	// Faults arms fault injection on lens parsing (faults.OpParse). Nil —
	// the production default — is inert and costs one nil check.
	Faults *faults.Injector
	// Cache is an optional content-addressed parse cache shared across
	// every entity crawled through this crawler: identical file content
	// (by lens, path, and SHA-256) parses once fleet-wide. Nil disables
	// caching.
	Cache *ParseCache
}

// Crawler extracts configuration from entities using a lens registry.
type Crawler struct {
	registry *lens.Registry
	opts     Options
}

// New creates a crawler. A nil registry uses lens.Default().
func New(registry *lens.Registry, opts Options) *Crawler {
	if registry == nil {
		registry = lens.Default()
	}
	if opts.MaxFileSize == 0 {
		opts.MaxFileSize = 16 << 20
	}
	return &Crawler{registry: registry, opts: opts}
}

// Registry exposes the lens registry the crawler uses.
func (c *Crawler) Registry() *lens.Registry { return c.registry }

// Cache exposes the shared parse cache, or nil when the crawler has none.
func (c *Crawler) Cache() *ParseCache { return c.opts.Cache }

// CrawlPaths crawls searchPaths on a fresh observation of the entity; see
// Crawl.
func (c *Crawler) CrawlPaths(e entity.Entity, searchPaths []string) ([]*FileConfig, error) {
	return c.Crawl(Observe(e, searchPaths), searchPaths)
}

// Crawl normalizes every recognized configuration file the observation
// sees under searchPaths. Missing search paths are skipped (an entity
// without /etc/mysql simply has no MySQL configuration). Files are
// returned sorted by path, deduplicated across overlapping search paths;
// files no lens recognizes are skipped unread.
//
// Failure granularity: a per-file problem (unreadable, oversized, or
// unparseable content, including a panicking lens) degrades that one
// FileConfig via its Err field and the crawl continues; a Walk failure is
// an entity-access failure (unreachable layer, flaky backend) and aborts
// with an error so the fleet's transient-retry policy can decide whether
// to re-scan the whole entity.
func (c *Crawler) Crawl(o *Observation, searchPaths []string) ([]*FileConfig, error) {
	seen := make(map[string]bool)
	var out []*FileConfig
	for _, root := range searchPaths {
		files, err := o.Walk(root)
		if err != nil && !errors.Is(err, entity.ErrNotExist) {
			return nil, fmt.Errorf("crawl %s: %w", root, err)
		}
		for _, fi := range files {
			if seen[fi.Path] || fi.IsDir() {
				continue
			}
			seen[fi.Path] = true
			if fc := c.crawlFile(o, fi); fc != nil {
				out = append(out, fc)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func (c *Crawler) crawlFile(o *Observation, fi entity.FileInfo) *FileConfig {
	l, ok := c.registry.ForFile(fi.Path)
	if !ok {
		return nil
	}
	fc := &FileConfig{Path: fi.Path, LensName: l.Name(), Info: fi}
	if fi.Size > c.opts.MaxFileSize {
		fc.Err = fmt.Errorf("crawler: %s: file size %d exceeds limit %d", fi.Path, fi.Size, c.opts.MaxFileSize)
		return fc
	}
	c.readAndParse(o, fi, l, fc)
	return fc
}

// readAndParse fills fc from the observation. It is isolated per file: a
// panicking lens — a corrupt input hitting a parser bug — degrades this
// one file (fc.Err) instead of aborting the entity scan, as the
// observation does for a panicking ReadFile.
func (c *Crawler) readAndParse(o *Observation, fi entity.FileInfo, l lens.Lens, fc *FileConfig) {
	defer func() {
		if r := recover(); r != nil {
			fc.Result = nil
			fc.Err = fmt.Errorf("crawler: %s: read/parse panicked: %v", fi.Path, r)
		}
	}()
	content, err := o.Read(fi.Path)
	if err != nil {
		fc.Err = err
		return
	}
	// Fault injection is consulted before the cache so chaos drills hit
	// the same injection points whether or not a scan runs cache-warm.
	if err := c.opts.Faults.Check(faults.OpParse, fi.Path); err != nil {
		fc.Err = fmt.Errorf("crawler: parse %s: %w", fi.Path, err)
		return
	}
	if c.opts.Cache != nil {
		sum, _ := o.Sum(fi.Path) // the read above succeeded, so Sum cannot fail
		if res, ok := c.opts.Cache.get(l.Name(), fi.Path, sum); ok {
			fc.Result = res
			return
		}
		res, err := l.Parse(fi.Path, content)
		if err != nil {
			fc.Err = err
			return
		}
		c.opts.Cache.put(l.Name(), fi.Path, sum, res)
		fc.Result = res
		return
	}
	res, err := l.Parse(fi.Path, content)
	if err != nil {
		fc.Err = err
		return
	}
	fc.Result = res
}
