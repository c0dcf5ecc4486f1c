package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// resultKeys flattens a report into comparable strings, one per result in
// order, capturing everything the output layer renders.
func resultKeys(rep *Report) []string {
	out := make([]string, len(rep.Results))
	for i, r := range rep.Results {
		name := ""
		if r.Rule != nil {
			name = r.Rule.Name
		}
		out[i] = fmt.Sprintf("%s|%s|%s|%v|%s|%s|%s",
			r.EntityName, r.ManifestEntity, name, r.Status, r.Message, r.Detail, r.File)
	}
	return out
}

// TestParallelReportMatchesSerial runs the Listing 1 stack — four manifest
// entries including a composite — serial and at several parallelism levels
// and requires identical result sequences.
func TestParallelReportMatchesSerial(t *testing.T) {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) {
		src, ok := listing1Files[path]
		if !ok {
			return nil, fmt.Errorf("no file %q", path)
		}
		return []byte(src), nil
	}
	for _, ent := range []*entity.Mem{
		stackEntity(true, "0", "/etc/mysql/cacert.pem"), // all legs pass
		stackEntity(false, "1", "/tmp/nope"),            // all legs fail
	} {
		serialRep, err := NewWithOptions(nil, Options{Parallelism: 1}).Validate(ent, manifest, read)
		if err != nil {
			t.Fatal(err)
		}
		want := resultKeys(serialRep)
		for _, par := range []int{2, 8} {
			rep, err := NewWithOptions(nil, Options{Parallelism: par}).Validate(ent, manifest, read)
			if err != nil {
				t.Fatalf("parallelism %d: %v", par, err)
			}
			got := resultKeys(rep)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("parallelism %d: results differ from serial\nserial:\n%s\nparallel:\n%s",
					par, strings.Join(want, "\n"), strings.Join(got, "\n"))
			}
		}
	}
}

// TestRunParallelPanicDeterminism pins the pool's panic contract: every
// task still runs, and the surviving panic value is the one from the
// lowest task index, independent of scheduling.
func TestRunParallelPanicDeterminism(t *testing.T) {
	var executed atomic.Int64
	pv := runParallel(4, 16, func(i int) {
		executed.Add(1)
		if i == 11 || i == 3 || i == 7 {
			panic(i)
		}
	})
	if got := executed.Load(); got != 16 {
		t.Errorf("executed %d tasks, want 16 (pool must drain past panics)", got)
	}
	if pv != 3 {
		t.Errorf("surviving panic value = %v, want 3 (lowest index)", pv)
	}
	if pv := runParallel(3, 5, func(int) {}); pv != nil {
		t.Errorf("panic value = %v for panic-free run, want nil", pv)
	}
}

// panicWalkEntity panics during entity access — the failure mode of a
// corrupted backend — to prove worker panics in the prepare phase
// propagate to the caller (where the fleet layer converts them).
type panicWalkEntity struct {
	*entity.Mem
}

func (p *panicWalkEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	panic("walk exploded")
}

func TestParallelPrepPanicPropagates(t *testing.T) {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) { return []byte(listing1Files[path]), nil }
	ent := &panicWalkEntity{Mem: stackEntity(true, "0", "/etc/mysql/cacert.pem")}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("entity-access panic was swallowed by the worker pool")
		}
		if s, ok := r.(string); !ok || s != "walk exploded" {
			t.Fatalf("recovered %v, want the original panic value", r)
		}
	}()
	_, _ = NewWithOptions(nil, Options{Parallelism: 4}).Validate(ent, manifest, read)
}

// failWalkEntity fails every walk and counts them — an entity whose
// backend is down.
type failWalkEntity struct {
	*entity.Mem
	walks atomic.Int64
}

func (f *failWalkEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	f.walks.Add(1)
	return fmt.Errorf("store down")
}

// TestParallelWalkFailureMatchesSerial pins the prepare phase's error
// semantics: an entity that cannot be walked costs the same number of
// walks, and fails with the same error, at every parallelism.
func TestParallelWalkFailureMatchesSerial(t *testing.T) {
	manifest, err := cvl.ParseManifest("manifest.yaml", []byte(listing1Files["manifest.yaml"]))
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) ([]byte, error) { return []byte(listing1Files[path]), nil }
	run := func(par int) (int64, string) {
		ent := &failWalkEntity{Mem: stackEntity(true, "0", "/etc/mysql/cacert.pem")}
		_, err := NewWithOptions(nil, Options{Parallelism: par}).Validate(ent, manifest, read)
		if err == nil {
			t.Fatalf("parallelism %d: validation of an unwalkable entity succeeded", par)
		}
		return ent.walks.Load(), err.Error()
	}
	wantWalks, wantErr := run(1)
	for _, par := range []int{2, 4, 8} {
		for i := 0; i < 20; i++ {
			walks, msg := run(par)
			if walks != wantWalks || msg != wantErr {
				t.Fatalf("parallelism %d: %d walks, error %q; serial made %d walks, error %q",
					par, walks, msg, wantWalks, wantErr)
			}
		}
	}
}

// TestCachedSourceDefensiveCopy pins the aliasing fix: callers may append
// to and reorder the slice Resolve returns without corrupting what later
// callers see.
func TestCachedSourceDefensiveCopy(t *testing.T) {
	const twoRules = `
config_name: first
config_path: [""]
preferred_value: ["1"]
---
config_name: second
config_path: [""]
preferred_value: ["2"]
`
	src := NewCachedSource(func(path string) ([]byte, error) { return []byte(twoRules), nil })
	got, err := src.Resolve("rules.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("resolved %d rules, want 2", len(got))
	}
	// Mutations a filtering caller performs: reorder and append.
	got[0], got[1] = got[1], got[0]
	_ = append(got, got[0])

	again, err := src.Resolve("rules.yaml")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 2 || again[0].Name != "first" || again[1].Name != "second" {
		names := make([]string, len(again))
		for i, r := range again {
			names[i] = r.Name
		}
		t.Fatalf("second Resolve sees mutated slice %v, want [first second]", names)
	}
	// And the two calls must not share a backing array.
	if &got[0] == &again[0] {
		t.Fatal("Resolve returned the same backing array twice")
	}
}
