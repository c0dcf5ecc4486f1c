package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"configvalidator/internal/engine"
	"configvalidator/internal/faults"
	"configvalidator/internal/fsutil"
)

// decodeRecord decodes one v2 payload with a fresh decoder.
func decodeRecord(payload []byte) (Record, error) {
	var d decoder
	return d.record(payload)
}

// degradedReport is the report of an entity none of whose config files
// could be read: only degraded results, none with a rule, each encoded in
// the fewest bytes a result can take.
func degradedReport(n int) *engine.Report {
	rep := &engine.Report{EntityName: "", EntityType: "host"}
	for i := 0; i < n; i++ {
		rep.Results = append(rep.Results, &engine.Result{Status: engine.StatusDegraded})
	}
	return rep
}

// codecRecords covers the shapes a payload can take: completed reports
// with and without rules and tags, reports of rule-less degraded results
// only, an audit-only failure, an empty record, and statuses outside the
// engine's range.
func codecRecords() []Record {
	odd := sampleReport(3)
	odd.Results[0].Status = -7
	odd.Results[0].Rule.Tags = nil
	odd.Results[1].Status = 1 << 40
	return []Record{
		sampleRecord(0),
		sampleRecord(1),
		{Entity: "broken-image:v1", Err: "scan panicked"},
		{},
		{Entity: "host-03", Digest: "d", Report: NewReportRecord(odd)},
		{Entity: "empty", Report: NewReportRecord(&engine.Report{EntityName: "empty"})},
		{Report: NewReportRecord(degradedReport(1))},
		{Entity: "unreadable", Digest: "d", Report: NewReportRecord(degradedReport(40))},
	}
}

// sameRecord compares records by their exported content (the rule cache
// a replay attaches is not part of a record's value).
func sameRecord(t *testing.T, got, want Record) bool {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(g, w)
}

func TestCodecRoundTrip(t *testing.T) {
	for i, rec := range codecRecords() {
		payload := appendRecord(nil, &rec)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !sameRecord(t, got, rec) {
			t.Errorf("record %d: round trip changed the record\ngot:  %+v\nwant: %+v", i, got, rec)
		}
		if again := appendRecord(nil, &got); !bytes.Equal(again, payload) {
			t.Errorf("record %d: re-encoding differs\ngot:  %x\nwant: %x", i, again, payload)
		}
		if got.Report != nil && rec.Report != nil {
			if !bytes.Equal(renderJSON(t, got.Report.Report()), renderJSON(t, rec.Report.Report())) {
				t.Errorf("record %d: decoded report renders differently", i)
			}
		}
	}
}

// TestFormatPinnedV2 pins the version 2 encoding of sampleRecord(0), frame
// header included: a change to these bytes is a format change and needs
// a new magic.
func TestFormatPinnedV2(t *testing.T) {
	const want = "d7000000f4bb49f60f07686f73742d3030096469676573742d30300004686f73" +
		"74047373686412726f6f74206c6f67696e20656e61626c65641d6f6273657276" +
		"65642076616c7565207965732028656e74697479203029142f6574632f737368" +
		"2f737368645f636f6e6669670f5065726d6974526f6f744c6f67696e0b636f6e" +
		"6669675f74726565046869676816736574205065726d6974526f6f744c6f6769" +
		"6e206e6f0423636973042373736814637261776c65723a207265616420666169" +
		"6c6564000102010003020004040506070108090a0b020c0d00040a0e020200"
	rec := sampleRecord(0)
	got, err := appendFrame(nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != want {
		t.Fatalf("v2 frame of sampleRecord(0) changed; the on-disk format changed\ngot:  %s\nwant: %s", h, want)
	}
	if magic != "CVJRNL02" {
		t.Fatalf("magic = %q", magic)
	}
}

// TestDecodeRejectsNonCanonical: every way a payload can differ from the
// encoder's output is rejected, so an accepted payload always re-encodes
// to itself.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	// Two strings, "a" and "b"; a record referencing "a", "b", "a" with
	// no report.
	valid := []byte{2, 1, 'a', 1, 'b', 0, 1, 0, 0}
	if _, err := decodeRecord(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	for name, payload := range map[string][]byte{
		"empty":              {},
		"trailing byte":      {2, 1, 'a', 1, 'b', 0, 1, 0, 0, 0},
		"padded varint":      {0x82, 0, 1, 'a', 1, 'b', 0, 1, 0, 0},
		"duplicate string":   {3, 1, 'a', 1, 'b', 1, 'a', 0, 1, 2, 0},
		"unreferenced entry": {3, 1, 'a', 1, 'b', 1, 'c', 0, 1, 0, 0},
		"reference skips":    {2, 1, 'a', 1, 'b', 1, 0, 0, 0},
		"reference past end": {2, 1, 'a', 1, 'b', 0, 1, 2, 0},
		"flag 2":             {2, 1, 'a', 1, 'b', 0, 1, 0, 2},
		"string past end":    {1, 9, 'a'},
		"overflowing varint": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
	} {
		if _, err := decodeRecord(payload); err == nil {
			t.Errorf("%s: accepted %x", name, payload)
		}
	}
	// Every strict prefix of a real record is rejected.
	rec := sampleRecord(0)
	full := appendRecord(nil, &rec)
	for n := 0; n < len(full); n++ {
		if _, err := decodeRecord(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(full))
		}
	}
}

// TestDecodeBoundsCountsByRemainingBytes: a count larger than the bytes
// left can hold is rejected before anything is allocated from it.
func TestDecodeBoundsCountsByRemainingBytes(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	// Table "", "h"; entity "", digest "h", err ""; a report of entity ""
	// and type "h".
	report := []byte{2, 0, 1, 'h', 0, 1, 0, 1, 0, 1}
	// One result: five empty references and status 0, then a rule of
	// four empty references.
	rule := []byte{1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}
	for name, payload := range map[string][]byte{
		"strings": cat(huge, []byte{0}),
		"results": cat(report, huge),
		"tags":    cat(report, rule, huge),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeRecord(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted a count of 1<<40", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes", name, grew)
		}
	}
}

// TestDegradedOnlyReportReplays: a report made only of degraded results
// without a rule is appended, replayed with no corrupt record and looked
// up intact, and does not cost the records after it.
func TestDegradedOnlyReportReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	unreadable := Record{Entity: "unreadable", Digest: "d", Report: NewReportRecord(degradedReport(3))}
	j := mustOpen(t, path, Options{})
	for _, rec := range []Record{unreadable, sampleRecord(1)} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 2 || st.CorruptRecords != 0 {
		t.Fatalf("stats = %+v, want 2 replayed, 0 corrupt", st)
	}
	for _, want := range []Record{unreadable, sampleRecord(1)} {
		got, ok := j2.Lookup(want.Entity, want.Digest)
		if !ok {
			t.Fatalf("%s not replayed", want.Entity)
		}
		if !bytes.Equal(renderJSON(t, got.Report.Report()), renderJSON(t, want.Report.Report())) {
			t.Errorf("%s: replayed report differs", want.Entity)
		}
	}
}

// TestReplayInternsRules: replayed reports share one engine rule per
// distinct rule and still render byte-identically.
func TestReplayInternsRules(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	j := mustOpen(t, path, Options{})
	appendN(t, j, 3)
	j.Close()
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	var first *engine.Report
	for i := 0; i < 3; i++ {
		rec, ok := j2.Lookup(sampleRecord(i).Entity, sampleRecord(i).Digest)
		if !ok {
			t.Fatalf("host-%02d not replayed", i)
		}
		rep := rec.Report.Report()
		if !bytes.Equal(renderJSON(t, rep), renderJSON(t, sampleReport(i))) {
			t.Fatalf("host-%02d: replayed report not byte-identical", i)
		}
		if first == nil {
			first = rep
		} else if rep.Results[0].Rule != first.Results[0].Rule {
			t.Errorf("host-%02d: the replayed rule was rebuilt, not shared", i)
		}
	}
}

// readV1 decodes a version 1 journal the way version 1 code did: every
// frame's payload through encoding/json.
func readV1(t *testing.T, blob []byte) []Record {
	t.Helper()
	if string(blob[:len(magicV1)]) != magicV1 {
		t.Fatalf("fixture magic = %q", blob[:len(magicV1)])
	}
	var out []Record
	for off := len(magicV1); off < len(blob); {
		length := int(binary.LittleEndian.Uint32(blob[off:]))
		payload := blob[off+8 : off+8+length]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(blob[off+4:]) {
			t.Fatalf("fixture record at %d fails its CRC", off)
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
		off += 8 + length
	}
	return out
}

// TestOpenUpgradesV1 replays testdata/v1.cvj, a journal written by the
// version 1 code: four completed records (one superseded) and one
// failure. Open must replay it exactly as the JSON decoding reads it and
// leave a version 2 file holding the live records.
func TestOpenUpgradesV1(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.cvj"))
	if err != nil {
		t.Fatal(err)
	}
	want := readV1(t, blob)
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	j := mustOpen(t, path, Options{})
	got := j.Replayed()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(t, got[i], want[i]) {
			t.Errorf("record %d: replay differs from the JSON decoding\ngot:  %+v\nwant: %+v", i, got[i], want[i])
		}
	}
	if st := j.Stats(); st.Replayed != 5 || st.CorruptRecords != 0 || st.Entities != 3 {
		t.Fatalf("stats = %+v, want 5 replayed, 0 corrupt, 3 entities", st)
	}
	upgraded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(upgraded[:len(magic)]) != magic {
		t.Fatalf("magic after Open = %q, want %q", upgraded[:len(magic)], magic)
	}
	// Appends land in the version 2 file behind the upgraded snapshot.
	if err := j.Append(sampleRecord(5)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// The last completed record per entity survives, in version 2.
	live := map[string]Record{}
	for _, rec := range want {
		if rec.Report != nil {
			live[rec.Entity] = rec
		}
	}
	live["host-05"] = sampleRecord(5)
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 4 || st.CorruptRecords != 0 || st.Entities != 4 {
		t.Fatalf("reopened stats = %+v, want 4 replayed, 0 corrupt, 4 entities", st)
	}
	for name, rec := range live {
		got, ok := j2.Lookup(name, rec.Digest)
		if !ok {
			t.Fatalf("%s lost in the upgrade", name)
		}
		if !bytes.Equal(renderJSON(t, got.Report.Report()), renderJSON(t, rec.Report.Report())) {
			t.Errorf("%s: report changed in the upgrade", name)
		}
	}
}

// TestOpenV1UpgradeFailureDegrades: when the rewrite to version 2 fails
// (here a full disk), Open still succeeds with the replayed records, in
// degraded mode. Appends are refused and the version 1 file is left as it
// was until a re-probe writes the upgrade; then the append lands in the
// version 2 file.
func TestOpenV1UpgradeFailureDegrades(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.cvj"))
	if err != nil {
		t.Fatal(err)
	}
	want := readV1(t, blob)
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var degradedErr error
	fsutil.ArmFaults(faults.MustNew(faults.Rule{Op: faults.OpAtomicWrite, Kind: faults.KindENOSPC}))
	defer fsutil.ArmFaults(nil)
	j, err := Open(path, Options{OnDegraded: func(err error) { degradedErr = err }})
	if err != nil {
		t.Fatalf("a failed upgrade failed Open: %v", err)
	}
	defer j.Close()
	if !j.Degraded() || !errors.Is(degradedErr, syscall.ENOSPC) {
		t.Fatalf("degraded = %v, OnDegraded error = %v; want degraded by ENOSPC", j.Degraded(), degradedErr)
	}
	if st := j.Stats(); st.Replayed != 5 || st.CorruptRecords != 0 || st.Entities != 3 {
		t.Fatalf("stats = %+v, want 5 replayed, 0 corrupt, 3 entities", st)
	}
	live := map[string]Record{}
	for _, rec := range want {
		if rec.Report != nil {
			live[rec.Entity] = rec
		}
	}
	for name, rec := range live {
		if _, ok := j.Lookup(name, rec.Digest); !ok {
			t.Fatalf("%s not in the replayed index", name)
		}
	}

	// Between probes appends fail fast; at a probe under a still-full
	// disk the upgrade fails again. Neither touches the version 1 file.
	now := fakeClock(j)
	j.mu.Lock()
	j.nextProbe = now.Add(time.Second)
	j.mu.Unlock()
	if err := j.Append(sampleRecord(5)); err == nil {
		t.Fatal("append to a journal awaiting its upgrade succeeded between probes")
	}
	*now = now.Add(time.Minute)
	if err := j.Append(sampleRecord(5)); err == nil {
		t.Fatal("append succeeded although the upgrade still cannot be written")
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, blob) {
		t.Fatal("a degraded journal changed the version 1 file")
	}

	// The disk frees up: the next probe upgrades, then appends.
	fsutil.ArmFaults(nil)
	*now = now.Add(time.Minute)
	if err := j.Append(sampleRecord(5)); err != nil {
		t.Fatalf("append after the disk freed up: %v", err)
	}
	if j.Degraded() {
		t.Fatal("still degraded after a successful upgrade and append")
	}
	j.Close()
	upgraded, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(upgraded[:len(magic)]) != magic {
		t.Fatalf("magic after the probe = %q, want %q", upgraded[:len(magic)], magic)
	}
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 4 || st.CorruptRecords != 0 || st.Entities != 4 {
		t.Fatalf("reopened stats = %+v, want 4 replayed, 0 corrupt, 4 entities", st)
	}
}

// TestOpenV1UpgradeRetriedByCompact: a Compact on a journal whose upgrade
// failed at Open writes the upgrade and ends degraded mode.
func TestOpenV1UpgradeRetriedByCompact(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.cvj"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.cvj")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	fsutil.ArmFaults(faults.MustNew(faults.Rule{Op: faults.OpAtomicWrite, Kind: faults.KindENOSPC}))
	j, err := Open(path, Options{})
	fsutil.ArmFaults(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Fatal("still degraded after Compact wrote the upgrade")
	}
	if err := j.Append(sampleRecord(5)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := mustOpen(t, path, Options{})
	defer j2.Close()
	if st := j2.Stats(); st.Replayed != 4 || st.CorruptRecords != 0 || st.Entities != 4 {
		t.Fatalf("reopened stats = %+v, want 4 replayed, 0 corrupt, 4 entities", st)
	}
}

// FuzzDecodeRecord: on arbitrary payload bytes the decoder never panics,
// and any payload it accepts re-encodes to exactly the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range codecRecords() {
		f.Add(appendRecord(nil, &rec))
	}
	f.Add([]byte{2, 1, 'a', 1, 'b', 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if again := appendRecord(nil, &rec); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently\nin:  %x\nout: %x", payload, again)
		}
		if rec.Report != nil {
			_ = rec.Report.Report()
		}
	})
}
