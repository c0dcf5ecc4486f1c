package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/entity"
)

func scanOnce(t *testing.T, ents []entity.Entity) []configvalidator.FleetResult {
	t.Helper()
	v, err := configvalidator.New()
	if err != nil {
		t.Fatal(err)
	}
	return drain(v.ValidateFleet(context.Background(), feed(ents), configvalidator.FleetOptions{}))
}

// TestOracleFiresOnWrongReference proves the correctness oracle passes a
// correct scan and fails it once the reference is deliberately wrong.
func TestOracleFiresOnWrongReference(t *testing.T) {
	ents, err := generateFleet(6, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := buildReference(ents)
	if err != nil {
		t.Fatal(err)
	}
	results := scanOnce(t, ents)
	if got := ref.checkScan(results, false); got != 0 {
		t.Fatalf("correct scan: %d failures, want 0", got)
	}
	if got := ref.checkScan(results, true); got != len(ents) {
		t.Errorf("scan that was not resumed, checked as a replay: %d failures, want %d", got, len(ents))
	}
	if got := ref.checkScan(results[1:], false); got != 1 {
		t.Errorf("scan missing one entity: %d failures, want 1", got)
	}

	wrongCounts := *ref
	wrongCounts.counts = map[string]counts{}
	for name, c := range ref.counts {
		wrongCounts.counts[name] = c
	}
	c := wrongCounts.counts[ents[2].Name()]
	c[configvalidator.StatusFail]++
	wrongCounts.counts[ents[2].Name()] = c
	if got := wrongCounts.checkScan(results, false); got != 1 {
		t.Errorf("reference with one wrong entity: %d failures, want 1", got)
	}

	wrongSummary := *ref
	wrongSummary.summary += " extra"
	if got := wrongSummary.checkScan(results, false); got != 1 {
		t.Errorf("reference with a wrong summary: %d failures, want 1", got)
	}

	name := ents[0].Name()
	body := []byte("{}")
	if ref.checkBody(name, 200, body) {
		t.Error("a body that differs from the reference passed")
	}
	wrongBody := *ref
	wrongBody.body = map[string][32]byte{name: [32]byte{}}
	fb, err := captureFrame(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) == 0 || wrongBody.checkBody(name, 200, fb) {
		t.Error("a body checked against a wrong reference hash passed")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program prints %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program runs %s", i, w.Name, workloadNames[i])
		}
	}
}

// TestAttributeAccountsForWallTime checks self and wall attribution on
// nested and overlapping spans.
func TestAttributeAccountsForWallTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Key: 1, Name: "r.root", Start: ms(0), End: ms(100)},
		{Key: 2, Parent: 1, Name: "a.child", Start: ms(10), End: ms(40)},
		{Key: 3, Parent: 1, Name: "b.child", Start: ms(30), End: ms(70)},
		{Key: 4, Parent: 2, Name: "g.grandchild", Start: ms(15), End: ms(20)},
		{Key: 5, Name: "r.root", Start: ms(120), End: ms(130)},
	}
	a := attribute(spans)
	want := map[string][2]time.Duration{ // self, wall
		"r.root":       {ms(50), ms(50)},
		"a.child":      {ms(25), ms(20)},
		"b.child":      {ms(40), ms(35)},
		"g.grandchild": {ms(5), ms(5)},
	}
	var wall time.Duration
	for _, r := range a.Rows {
		w, ok := want[r.Name]
		if !ok || r.Self != w[0] || r.Wall != w[1] {
			t.Errorf("%s: self %v wall %v, want %v", r.Name, r.Self, r.Wall, w)
		}
		wall += r.Wall
	}
	if a.WallTime != ms(130) || a.Unattributed != ms(20) || wall+a.Unattributed != a.WallTime {
		t.Errorf("wall %v unattributed %v attributed %v, want 130ms, 20ms and their difference", a.WallTime, a.Unattributed, wall)
	}
}

// TestMedianSpreadMatchesPython pins the quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestMedianSpreadMatchesPython(t *testing.T) {
	med, spread := medianSpread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if med != 5.5 || spread != (8.25-2.75)/5.5 {
		t.Errorf("median %v spread %v, want 5.5 and 1", med, spread)
	}
}
