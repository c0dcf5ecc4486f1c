package telemetry

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketConstantMatchesBounds(t *testing.T) {
	if len(LatencyBuckets) != numBuckets {
		t.Fatalf("numBuckets = %d, len(LatencyBuckets) = %d", numBuckets, len(LatencyBuckets))
	}
}

func TestCollectorCounters(t *testing.T) {
	c := NewCollector()
	c.ScanDone(2 * time.Millisecond)
	c.Add(ResultsPass, 10)
	c.Add(ResultsFail, 2)
	c.Add(ResultsError, 1)
	c.ScanFailed(time.Millisecond)
	c.ScanFailed(time.Millisecond, ScanPanics)
	c.ScanFailed(50*time.Millisecond, ScanTimeouts)
	c.Add(ScanRetries, 1)
	c.Add(ScanRetries, 1)

	s := c.Snapshot()
	if s.Scans != 4 {
		t.Errorf("Scans = %d, want 4", s.Scans)
	}
	if s.Errors != 3 {
		t.Errorf("Errors = %d, want 3", s.Errors)
	}
	if s.Panics != 1 || s.Timeouts != 1 || s.Retries != 2 {
		t.Errorf("panics/timeouts/retries = %d/%d/%d", s.Panics, s.Timeouts, s.Retries)
	}
	if want := map[string]int64{"pass": 10, "fail": 2, "error": 1}; len(s.ResultsByStatus) != len(want) ||
		s.ResultsByStatus["pass"] != 10 || s.ResultsByStatus["fail"] != 2 || s.ResultsByStatus["error"] != 1 {
		t.Errorf("ResultsByStatus = %v, want %v", s.ResultsByStatus, want)
	}
	if s.ScanLatency.Count != 4 {
		t.Errorf("latency count = %d", s.ScanLatency.Count)
	}
	if s.ScanLatency.Mean() <= 0 {
		t.Errorf("mean = %v", s.ScanLatency.Mean())
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.ScanDone(time.Millisecond)
	c.ScanFailed(0)
	c.ScanFailed(0, ScanPanics)
	c.Add(ScanRetries, 1)
	c.Set(BreakerOpen, 1)
	c.RequestDone("GET /healthz", 200, time.Millisecond)
}

func TestHistogramQuantile(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 99; i++ {
		c.ScanDone(time.Millisecond) // le=0.001 bucket
	}
	c.ScanDone(4 * time.Second) // le=5 bucket
	h := c.Snapshot().ScanLatency
	if got := h.Quantile(0.5); got != time.Millisecond {
		t.Errorf("p50 = %v, want 1ms", got)
	}
	if got := h.Quantile(1); got != 5*time.Second {
		t.Errorf("p100 = %v, want 5s (bucket upper bound)", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector()
	c.ScanDone(3 * time.Millisecond)
	c.Add(ResultsPass, 5)
	c.ScanFailed(time.Millisecond, ScanPanics)
	c.RequestDone("POST /v1/validate/frame", 200, 2*time.Millisecond)
	c.RequestDone("POST /v1/validate/frame", 413, time.Millisecond)

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"configvalidator_scans_total 2",
		"configvalidator_scan_panics_total 1",
		"configvalidator_scan_errors_total 1",
		`configvalidator_results_total{status="pass"} 5`,
		`configvalidator_scan_duration_seconds_bucket{le="+Inf"} 2`,
		"configvalidator_scan_duration_seconds_count 2",
		`configvalidator_http_requests_total{route="POST /v1/validate/frame",code="200"} 1`,
		`configvalidator_http_requests_total{route="POST /v1/validate/frame",code="413"} 1`,
		"configvalidator_http_request_duration_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestCollectorConcurrency(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.ScanDone(time.Millisecond)
				c.Add(ResultsPass, 1)
				c.RequestDone("GET /metrics", 200, time.Microsecond)
				c.Add(ScanRetries, 1)
				c.Add(InFlightScans, 1)
				c.Add(InFlightScans, -1)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Scans != 4000 || s.Retries != 4000 {
		t.Errorf("scans=%d retries=%d, want 4000 each", s.Scans, s.Retries)
	}
	if s.HTTPRequests["GET /metrics 200"] != 4000 {
		t.Errorf("http = %v", s.HTTPRequests)
	}
	if s.ResultsByStatus["pass"] != 4000 {
		t.Errorf("pass results = %d", s.ResultsByStatus["pass"])
	}
	if s.InFlightScans != 0 {
		t.Errorf("in-flight gauge = %d after balanced rises and falls", s.InFlightScans)
	}
}

func TestParseCacheCounters(t *testing.T) {
	c := NewCollector()
	c.Add(ParseCacheHits, 1)
	c.Add(ParseCacheHits, 1)
	c.Add(ParseCacheMisses, 1)
	c.Add(ParseCacheEvictions, 1)

	s := c.Snapshot()
	if s.ParseCacheHits != 2 || s.ParseCacheMisses != 1 || s.ParseCacheEvictions != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 2/1/1",
			s.ParseCacheHits, s.ParseCacheMisses, s.ParseCacheEvictions)
	}

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"configvalidator_parse_cache_hits_total 2",
		"configvalidator_parse_cache_misses_total 1",
		"configvalidator_parse_cache_evictions_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// TestExpositionGolden pins the exposition byte for byte: metric names,
// help text, TYPE lines and order are what scrapers depend on. The events
// give every counter and gauge a distinct value and cover all five result
// statuses, both histograms (each with one +Inf observation) and two HTTP
// routes.
func TestExpositionGolden(t *testing.T) {
	c := NewCollector()
	c.ScanDone(time.Millisecond)
	c.Add(ResultsPass, 7)
	c.Add(ResultsFail, 3)
	c.Add(ResultsNotApplicable, 2)
	c.Add(ResultsError, 1)
	c.Add(ResultsDegraded, 4)
	c.ScanDone(20 * time.Second)
	c.ScanFailed(3 * time.Millisecond)
	for i := 0; i < 2; i++ {
		c.ScanFailed(4*time.Millisecond, ScanPanics)
	}
	for i := 0; i < 3; i++ {
		c.ScanFailed(30*time.Millisecond, ScanTimeouts)
	}
	c.Add(ScanRetries, 4)
	c.Add(InFlightScans, 5)
	c.Add(InFlightScans, -2)
	c.Add(QueueDepth, 4)
	c.Add(QueueDepth, -3)
	c.Add(RequestsShed, 6)
	for _, open := range []bool{true, true, false, true} {
		if open {
			c.Add(BreakerOpens, 1)
			c.Set(BreakerOpen, 1)
		} else {
			c.Set(BreakerOpen, 0)
		}
	}
	c.Add(ParseCacheHits, 7)
	c.Add(ParseCacheMisses, 8)
	c.Add(ParseCacheEvictions, 9)
	c.Add(JournalAppends, 10)
	c.Add(JournalReplayed, 11)
	c.Add(JournalCorruptRecords, 12)
	c.Add(JournalAppendErrors, 13)
	c.Set(JournalDegraded, 1)
	c.Add(JournalReprobes, 14)
	c.Add(MergeStalls, 15)
	c.Add(JournalSkippedEntities, 16)
	c.Add(ScansAbandoned, 17)
	c.Add(ShardsDispatched, 20)
	c.Add(ActiveLeases, 20)
	c.Add(ShardsCompleted, 18)
	c.Add(ActiveLeases, -18)
	c.Add(LeaseReassignments, 1)
	c.Add(ActiveLeases, -1)
	c.Add(HeartbeatsMissed, 19)
	c.Add(DuplicateResults, 21)
	c.Add(WorkerRPCRetries, 22)
	c.RequestDone("POST /v1/validate/frame", 200, 2*time.Millisecond)
	c.RequestDone("POST /v1/validate/frame", 200, 2*time.Millisecond)
	c.RequestDone("GET /metrics", 200, 100*time.Microsecond)
	c.RequestDone("POST /v1/validate/frame", 429, 30*time.Second)

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/exposition.prom")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition differs at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, golden has %d", len(gl), len(wl))
	}
}
