package crawler

import (
	"crypto/sha256"
	"fmt"

	"configvalidator/internal/entity"
)

// Observation is one scan's view of an entity's configuration files: it
// walks each search root at most once and reads and SHA-256s each file at
// most once, all lazily, and records what it saw. The config digest, the
// crawled configs, the parse-cache keys and the verdict-memo signature of
// one scan all come from one Observation, so they describe the same bytes
// even when the entity changes mid-scan. It is not safe for concurrent use.
type Observation struct {
	e     entity.Entity
	walks []rootWalk
	files map[string]*observedFile
	// visit records a FileInfo into the walk in progress, the last one;
	// one closure serves every walk.
	visit func(entity.FileInfo) error
}

type rootWalk struct {
	root  string
	files []entity.FileInfo
	err   error
}

type observedFile struct {
	data   []byte
	err    error
	sum    [sha256.Size]byte
	hashed bool
}

// Observe starts an observation of e. roots, the search roots the scan
// will walk, size it; nothing is walked or read until asked for.
func Observe(e entity.Entity, roots []string) *Observation {
	o := &Observation{e: e, walks: make([]rootWalk, 0, len(roots))}
	o.visit = func(fi entity.FileInfo) error {
		w := &o.walks[len(o.walks)-1]
		w.files = append(w.files, fi)
		return nil
	}
	return o
}

// Entity returns the observed entity.
func (o *Observation) Entity() entity.Entity { return o.e }

// Walk returns every FileInfo a walk of root visits, directories included,
// in visit order, with the error the walk ended with; the files visited
// before an error are returned with it. Only the first call walks the
// entity. A panicking Walk propagates and leaves the observation unusable.
func (o *Observation) Walk(root string) ([]entity.FileInfo, error) {
	for _, w := range o.walks {
		if w.root == root {
			return w.files, w.err
		}
	}
	o.walks = append(o.walks, rootWalk{root: root})
	w := &o.walks[len(o.walks)-1]
	w.err = o.e.Walk(root, o.visit)
	return w.files, w.err
}

// Read returns path's content, which callers must not modify, reading it
// on first use. The error names the path. A ReadFile that panics is
// recorded as the file's error, like one that fails: one unreadable file
// degrades that file, not the scan.
func (o *Observation) Read(path string) ([]byte, error) {
	f := o.file(path)
	return f.data, f.err
}

// Sum returns the SHA-256 of path's content, hashing it on first use; the
// error is Read's.
func (o *Observation) Sum(path string) ([sha256.Size]byte, error) {
	f := o.file(path)
	if f.err == nil && !f.hashed {
		f.sum, f.hashed = sha256.Sum256(f.data), true
	}
	return f.sum, f.err
}

func (o *Observation) file(path string) (f *observedFile) {
	if seen, ok := o.files[path]; ok {
		return seen
	}
	if o.files == nil {
		o.files = make(map[string]*observedFile)
	}
	f = &observedFile{}
	o.files[path] = f
	defer func() {
		if r := recover(); r != nil {
			f.data, f.err = nil, fmt.Errorf("crawler: %s: read/parse panicked: %v", path, r)
		}
	}()
	if f.data, f.err = o.e.ReadFile(path); f.err != nil {
		f.data, f.err = nil, fmt.Errorf("crawler: read %s: %w", path, f.err)
	}
	return f
}
