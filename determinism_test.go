package configvalidator

// Differential determinism suite: the Rehearsal-style guarantee that
// identical inputs produce byte-identical reports regardless of how the
// work is scheduled. Every fixture entity is validated once on a plain
// Validator for a baseline, then through a cold and a warm parse cache, and
// through ValidateFleet at Workers 1 and 8 over one shared parse cache,
// once with the default cache and once with a 1-entry cache that evicts;
// every run must render the same text, JSON, and JUnit bytes. A seeded
// shuffle of the manifest entries then shows that report ordering is a
// function of the manifest, not of goroutine scheduling.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"configvalidator/internal/cvl"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/rules"
)

// determinismEntities builds a representative entity set: two generated
// hosts (system- and application-flavored) and a small image fleet, all
// with deliberate misconfigurations so reports carry real findings.
func determinismEntities(t testing.TB) []Entity {
	t.Helper()
	u, _ := fixtures.UbuntuHost("det-ubuntu", fixtures.Profile{Seed: 11, MisconfigRate: 0.3})
	s, _ := fixtures.SystemHost("det-system", fixtures.Profile{Seed: 23, MisconfigRate: 0.5})
	ents := []Entity{u, s}
	reg, _ := fixtures.Fleet(4, fixtures.Profile{Seed: 99, MisconfigRate: 0.3})
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			t.Fatal(err)
		}
		ents = append(ents, img.Entity())
	}
	return ents
}

// renderAll renders a report in every supported output format.
func renderAll(t testing.TB, rep *Report) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, 3)
	for name, write := range map[string]func(io.Writer, *Report, OutputOptions) error{
		"text":  WriteText,
		"json":  WriteJSON,
		"junit": WriteJUnit,
	} {
		var buf bytes.Buffer
		if err := write(&buf, rep, OutputOptions{}); err != nil {
			t.Fatalf("render %s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// sameRenderings reports, per output format, whether rep renders to the
// same bytes as want.
func sameRenderings(t *testing.T, label string, rep *Report, want map[string][]byte) {
	t.Helper()
	got := renderAll(t, rep)
	for format, wantBytes := range want {
		if !bytes.Equal(got[format], wantBytes) {
			t.Errorf("%s: %s %s report differs from serial baseline", rep.EntityName, label, format)
		}
	}
}

func TestDeterminismAcrossSchedules(t *testing.T) {
	serialV, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ents := determinismEntities(t)
	want := make(map[string]map[string][]byte, len(ents))
	for _, ent := range ents {
		rep, err := serialV.Validate(ent)
		if err != nil {
			t.Fatal(err)
		}
		want[ent.Name()] = renderAll(t, rep)
	}

	// The default cache holds every parse; the 1-entry cache evicts
	// between files and entities, so the verdict memo, keyed on content,
	// keeps hitting for configs whose parses the cache no longer holds.
	for _, capacity := range []int{0, 1} {
		t.Run(fmt.Sprintf("cache%d", capacity), func(t *testing.T) {
			checkCachedSchedules(t, ents, want, capacity)
		})
	}
}

// checkCachedSchedules compares every entity's reports through a parse
// cache of the given capacity (<= 0 is the default) with want.
func checkCachedSchedules(t *testing.T, ents []Entity, want map[string]map[string][]byte, capacity int) {
	cachedV, err := New(WithParseCache(NewParseCache(capacity)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		// First pass through cachedV populates the cache for this entity
		// (cold), the second is served from it (warm); both must match.
		for _, label := range []string{"cache-cold", "cache-warm"} {
			rep, err := cachedV.Validate(ent)
			if err != nil {
				t.Fatalf("%s/%s: %v", ent.Name(), label, err)
			}
			sameRenderings(t, label, rep, want[ent.Name()])
		}
	}
	stats := cachedV.ParseCacheStats()
	if capacity == 1 && stats.Evictions == 0 {
		t.Error("the 1-entry cache recorded no evictions — the evicting variant tested nothing")
	}
	if capacity != 1 && stats.Hits == 0 {
		t.Error("warm cache passes recorded no hits — the cached variant tested nothing")
	}

	// The fleet schedule: one worker, then eight racing over the parse
	// cache and verdict memo the first run filled.
	fleetV, err := New(WithParseCache(NewParseCache(capacity)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		label := fmt.Sprintf("fleet-workers%d", workers)
		n := 0
		for res := range fleetV.ValidateFleet(context.Background(), sendEntities(ents...), FleetOptions{Workers: workers}) {
			if res.Err != nil {
				t.Fatalf("%s/%s: %v", res.Entity, label, res.Err)
			}
			sameRenderings(t, label, res.Report, want[res.Entity])
			n++
		}
		if n != len(ents) {
			t.Fatalf("%s: %d results, want %d", label, n, len(ents))
		}
	}
	if stats := fleetV.ParseCacheStats(); capacity != 1 && stats.Hits == 0 {
		t.Error("the second fleet run recorded no parse-cache hits")
	}
}

// TestDeterminismManifestOrder validates one entity against a seeded
// shuffle of the built-in manifest: concurrent fleet scans of the entity
// must agree byte for byte with a serial Validate, and the report's entity
// sequence must follow the shuffled manifest order — ordering derives from
// the manifest, never from which worker finished first.
func TestDeterminismManifestOrder(t *testing.T) {
	base, err := rules.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	host, _ := fixtures.UbuntuHost("det-shuffle", fixtures.Profile{Seed: 31, MisconfigRate: 0.4})

	rng := rand.New(rand.NewSource(1509)) // arXiv 1509.05100, for luck
	for iter := 0; iter < 3; iter++ {
		shuffled := &cvl.Manifest{Entries: append([]*cvl.ManifestEntry(nil), base.Entries...)}
		rng.Shuffle(len(shuffled.Entries), func(i, j int) {
			shuffled.Entries[i], shuffled.Entries[j] = shuffled.Entries[j], shuffled.Entries[i]
		})

		serialV, err := New(WithManifest(shuffled, rules.Reader()))
		if err != nil {
			t.Fatal(err)
		}
		fleetV, err := New(WithManifest(shuffled, rules.Reader()), WithParseCache(NewParseCache(0)))
		if err != nil {
			t.Fatal(err)
		}
		serialRep, err := serialV.Validate(host)
		if err != nil {
			t.Fatal(err)
		}
		wantAll := renderAll(t, serialRep)
		for res := range fleetV.ValidateFleet(context.Background(), sendEntities(host, host, host, host), FleetOptions{Workers: 4}) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			sameRenderings(t, fmt.Sprintf("iter %d: fleet on shuffled manifest", iter), res.Report, wantAll)
		}

		// The sequence of manifest entities in the report must be the
		// shuffled entry order with consecutive repeats collapsed.
		var gotOrder []string
		for _, res := range serialRep.Results {
			if len(gotOrder) == 0 || gotOrder[len(gotOrder)-1] != res.ManifestEntity {
				gotOrder = append(gotOrder, res.ManifestEntity)
			}
		}
		wantOrder := make(map[string]int)
		for i, e := range shuffled.EnabledEntries() {
			wantOrder[e.Name] = i
		}
		last := -1
		for _, name := range gotOrder {
			idx, ok := wantOrder[name]
			if !ok {
				t.Fatalf("iter %d: report names unknown manifest entity %q", iter, name)
			}
			if idx <= last {
				t.Errorf("iter %d: entity %q out of shuffled-manifest order", iter, name)
			}
			last = idx
		}
	}
}
