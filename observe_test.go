package configvalidator

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
)

// countingEntity counts every Walk per root and every ReadFile per path.
type countingEntity struct {
	Entity
	mu    sync.Mutex
	walks map[string]int
	reads map[string]int
}

func newCountingEntity(e Entity) *countingEntity {
	return &countingEntity{Entity: e, walks: make(map[string]int), reads: make(map[string]int)}
}

func (c *countingEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	c.mu.Lock()
	c.walks[root]++
	c.mu.Unlock()
	return c.Entity.Walk(root, fn)
}

func (c *countingEntity) ReadFile(path string) ([]byte, error) {
	c.mu.Lock()
	c.reads[path]++
	c.mu.Unlock()
	return c.Entity.ReadFile(path)
}

// TestJournaledScanObservesOnce pins that a journaled scan which misses
// the journal walks each distinct search root once and reads each file
// once: the resume digest and the validation share one observation.
func TestJournaledScanObservesOnce(t *testing.T) {
	img, _ := fixtures.Image("observe-once", "v1", fixtures.Profile{Seed: 5, MisconfigRate: 0.3})
	for _, withCache := range []bool{false, true} {
		var opts []Option
		if withCache {
			opts = append(opts, WithParseCache(NewParseCache(0)))
		}
		v, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(filepath.Join(t.TempDir(), "fleet.cvj"), JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ent := newCountingEntity(img.Entity())
		for res := range v.ValidateFleet(context.Background(), sendEntities(ent), FleetOptions{Journal: j}) {
			if res.Err != nil || res.Resumed {
				t.Fatalf("cache=%v: scan of %s: resumed=%v err=%v, want a fresh scan", withCache, res.Entity, res.Resumed, res.Err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		roots := searchPathUnion(v.manifest.EnabledEntries())
		for _, root := range roots {
			if n := ent.walks[root]; n != 1 {
				t.Errorf("cache=%v: root %s walked %d times, want 1", withCache, root, n)
			}
		}
		if len(ent.walks) != len(roots) {
			t.Errorf("cache=%v: walked %d roots, want the %d search roots", withCache, len(ent.walks), len(roots))
		}
		var files []string
		for _, root := range roots {
			_ = img.Entity().Walk(root, func(fi entity.FileInfo) error {
				if !fi.IsDir() {
					files = append(files, fi.Path)
				}
				return nil
			})
		}
		if len(files) == 0 {
			t.Fatal("fixture image has no config files under the search roots")
		}
		for _, path := range files {
			if n := ent.reads[path]; n != 1 {
				t.Errorf("cache=%v: %s read %d times, want 1", withCache, path, n)
			}
		}
		if len(ent.reads) != len(files) {
			read := make([]string, 0, len(ent.reads))
			for p := range ent.reads {
				read = append(read, p)
			}
			sort.Strings(read)
			t.Errorf("cache=%v: read %v, want exactly the config files %v", withCache, read, files)
		}
	}
}

// flipEntity serves sshd_config with its first content on the first read
// and with later on every read after that: a file edited while a scan is
// in progress.
type flipEntity struct {
	Entity
	later []byte
	mu    sync.Mutex
	reads int
}

func (f *flipEntity) ReadFile(path string) ([]byte, error) {
	if strings.HasSuffix(path, "/sshd_config") {
		f.mu.Lock()
		f.reads++
		n := f.reads
		f.mu.Unlock()
		if n > 1 {
			return append([]byte(nil), f.later...), nil
		}
	}
	return f.Entity.ReadFile(path)
}

// TestJournaledDigestMatchesReport pins that a journaled record's digest
// names the bytes its report judged. The scanned entity's sshd_config
// changes after its first read; whatever the scan validated, a later
// resume over an entity holding the first content must replay a report
// equal to a fresh validation of that content.
func TestJournaledDigestMatchesReport(t *testing.T) {
	const first = "PermitRootLogin yes\nProtocol 2\n"
	const later = "PermitRootLogin no\nProtocol 2\n"
	stable := entity.NewMem("flip-host", entity.TypeHost)
	stable.AddFile("/etc/ssh/sshd_config", []byte(first), entity.WithMode(0o600))

	v, err := New()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j1, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flipping := &flipEntity{Entity: stable, later: []byte(later)}
	for res := range v.ValidateFleet(context.Background(), sendEntities(flipping), FleetOptions{Journal: j1}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := v.Validate(stable)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	replayed := false
	for res := range v.ValidateFleet(context.Background(), sendEntities(stable), FleetOptions{Journal: j2}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		replayed = res.Resumed
		if got := reportJSON(t, res.Report); string(got) != string(reportJSON(t, want)) {
			t.Errorf("resumed report differs from a fresh validation of the same content\ngot:  %s\nwant: %s", got, reportJSON(t, want))
		}
	}
	if !replayed {
		t.Error("the unchanged entity was re-scanned, want its journaled report replayed")
	}
}
