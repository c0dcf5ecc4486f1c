// Package telemetry provides process-local runtime metrics for the
// validation pipeline: scan and result counters, a fixed-bucket scan
// latency histogram, error/retry/panic/timeout counters, and per-route
// HTTP request instrumentation. One Collector is shared by single scans,
// fleet scans, the journal, the parse cache, the distributed coordinator
// and the HTTP service, so an operator sees the whole deployment in a
// single snapshot — the observability layer the paper's production
// deployment (tens of thousands of scans daily inside IBM Vulnerability
// Advisor) implies but the reproduction lacked.
//
// Every counter and gauge is declared once, as a row of the defs table:
// the row gives its exposition name, help text, kind and Snapshot field,
// and the Collector, Snapshot and WritePrometheus are all driven from the
// table. Code that observes an event calls Add or Set with the row's
// Metric; adding a metric is one row plus one Add at the event. Only
// ScanDone, ScanFailed and RequestDone do more than touch one row (they
// also feed the latency histograms and the HTTP route counts).
//
// The package imports only the standard library, so any layer (the
// crawler's parse cache, the journal) can write a Collector directly. All
// values are atomic; a Collector is safe for concurrent use by any number
// of fleet workers and HTTP handlers, and a nil *Collector discards
// everything. Snapshots are consistent enough for operations (each value
// is read atomically; the set is not read under one lock).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the histogram upper bounds in seconds, chosen to
// bracket observed scan times: sub-millisecond in-memory scans up through
// multi-second scans of large entities.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// numBuckets fixes the bucket-array size at compile time; it must equal
// len(LatencyBuckets) (asserted in the package test).
const numBuckets = 14

// histogram is a fixed-bucket latency histogram with atomic counters. The
// final bucket is the implicit +Inf overflow.
type histogram struct {
	buckets  [numBuckets + 1]atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	secs := d.Seconds()
	idx := len(LatencyBuckets) // +Inf
	for i, ub := range LatencyBuckets {
		if secs <= ub {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

func (h *histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Bounds: LatencyBuckets,
		Counts: make([]int64, len(LatencyBuckets)+1),
		Count:  h.count.Load(),
		Sum:    time.Duration(h.sumNanos.Load()),
	}
	for i := range out.Counts {
		out.Counts[i] = h.buckets[i].Load()
	}
	return out
}

// HistogramSnapshot is a point-in-time copy of a latency histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts has one extra
	// trailing element for the +Inf overflow bucket.
	Bounds []float64
	Counts []int64
	// Count and Sum are the total observations and their summed duration.
	Count int64
	Sum   time.Duration
}

// Mean returns the average observed duration, or 0 with no observations.
func (h HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) from the buckets,
// attributing each observation to its bucket's upper bound. Good enough
// for progress lines, not for billing.
func (h HistogramSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 || q <= 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	var cum int64
	for i, n := range h.Counts {
		cum += n
		if cum >= rank {
			if i < len(h.Bounds) {
				return time.Duration(h.Bounds[i] * float64(time.Second))
			}
			// Overflow bucket: the best upper estimate is the mean of
			// what is left, but the last bound is the honest floor.
			return time.Duration(h.Bounds[len(h.Bounds)-1] * float64(time.Second))
		}
	}
	return h.Mean()
}

// Metric names one row of the defs table: a counter or gauge.
type Metric int

// Metrics, in exposition order. Counters only ever grow; gauges
// (InFlightScans through JournalDegraded) move both ways. The Results*
// rows are the status-labelled configvalidator_results_total family.
const (
	Scans Metric = iota
	ScanErrors
	ScanRetries
	ScanPanics
	ScanTimeouts
	RequestsShed
	BreakerOpens
	ParseCacheHits
	ParseCacheMisses
	ParseCacheEvictions
	JournalAppends
	JournalReplayed
	JournalCorruptRecords
	JournalSkippedEntities
	JournalAppendErrors
	JournalReprobes
	MergeStalls
	ScansAbandoned
	ShardsDispatched
	ShardsCompleted
	LeaseReassignments
	HeartbeatsMissed
	DuplicateResults
	WorkerRPCRetries
	InFlightScans
	ActiveLeases
	QueueDepth
	BreakerOpen
	JournalDegraded
	ResultsPass
	ResultsFail
	ResultsNotApplicable
	ResultsError
	ResultsDegraded
	numMetrics
)

// metricDef declares one metric. label is set only on the rows of the
// status-labelled results family, which land in Snapshot.ResultsByStatus;
// every other row copies its value into Snapshot through field.
type metricDef struct {
	name, help, kind string
	field            func(s *Snapshot, v int64)
	label            string
}

// counter and gauge declare one unlabelled row.
func counter(name, help string, field func(*Snapshot, int64)) metricDef {
	return metricDef{name: name, help: help, kind: "counter", field: field}
}

func gauge(name, help string, field func(*Snapshot, int64)) metricDef {
	return metricDef{name: name, help: help, kind: "gauge", field: field}
}

// result declares one row of configvalidator_results_total{status=label}.
func result(label string) metricDef {
	return metricDef{name: "configvalidator_results_total", help: "Rule results across all scans, by status.", kind: "counter", label: label}
}

// defs declares every metric, indexed by Metric, in exposition order.
var defs = [numMetrics]metricDef{
	Scans:                  counter("configvalidator_scans_total", "Validation attempts with a terminal outcome.", func(s *Snapshot, v int64) { s.Scans = v }),
	ScanErrors:             counter("configvalidator_scan_errors_total", "Validation attempts that ended in an error.", func(s *Snapshot, v int64) { s.Errors = v }),
	ScanRetries:            counter("configvalidator_scan_retries_total", "Retries of transient scan failures.", func(s *Snapshot, v int64) { s.Retries = v }),
	ScanPanics:             counter("configvalidator_scan_panics_total", "Scans that panicked and were isolated.", func(s *Snapshot, v int64) { s.Panics = v }),
	ScanTimeouts:           counter("configvalidator_scan_timeouts_total", "Scans abandoned at their deadline.", func(s *Snapshot, v int64) { s.Timeouts = v }),
	RequestsShed:           counter("configvalidator_requests_shed_total", "HTTP requests rejected at admission (429).", func(s *Snapshot, v int64) { s.Shed = v }),
	BreakerOpens:           counter("configvalidator_breaker_opens_total", "Circuit-breaker trips.", func(s *Snapshot, v int64) { s.BreakerOpens = v }),
	ParseCacheHits:         counter("configvalidator_parse_cache_hits_total", "Parse-cache lookups served from cache.", func(s *Snapshot, v int64) { s.ParseCacheHits = v }),
	ParseCacheMisses:       counter("configvalidator_parse_cache_misses_total", "Parse-cache lookups that had to parse.", func(s *Snapshot, v int64) { s.ParseCacheMisses = v }),
	ParseCacheEvictions:    counter("configvalidator_parse_cache_evictions_total", "Parse-cache entries dropped at capacity.", func(s *Snapshot, v int64) { s.ParseCacheEvictions = v }),
	JournalAppends:         counter("configvalidator_journal_appends_total", "Records appended to the durable result journal.", func(s *Snapshot, v int64) { s.JournalAppends = v }),
	JournalReplayed:        counter("configvalidator_journal_replayed_total", "Journal records replayed at recovery.", func(s *Snapshot, v int64) { s.JournalReplayed = v }),
	JournalCorruptRecords:  counter("configvalidator_journal_corrupt_records_total", "Corrupt journal records dropped at recovery.", func(s *Snapshot, v int64) { s.JournalCorruptRecords = v }),
	JournalSkippedEntities: counter("configvalidator_journal_skipped_entities_total", "Fleet entities skipped on resume (journaled digest matched).", func(s *Snapshot, v int64) { s.JournalSkippedEntities = v }),
	JournalAppendErrors:    counter("configvalidator_journal_append_errors_total", "Journal appends that failed (scan continued, result not persisted).", func(s *Snapshot, v int64) { s.JournalAppendErrors = v }),
	JournalReprobes:        counter("configvalidator_journal_reprobes_total", "Write re-probes attempted by a degraded journal.", func(s *Snapshot, v int64) { s.JournalReprobes = v }),
	MergeStalls:            counter("configvalidator_merge_stalls_total", "Coordinator merge stalls (slow FleetResult consumer paused shard reads).", func(s *Snapshot, v int64) { s.MergeStalls = v }),
	ScansAbandoned:         counter("configvalidator_scans_abandoned_total", "Computed fleet results dropped at context cancellation.", func(s *Snapshot, v int64) { s.ScansAbandoned = v }),
	ShardsDispatched:       counter("configvalidator_shards_dispatched_total", "Shards handed to workers under a lease.", func(s *Snapshot, v int64) { s.ShardsDispatched = v }),
	ShardsCompleted:        counter("configvalidator_shards_completed_total", "Shards whose every entity produced a result.", func(s *Snapshot, v int64) { s.ShardsCompleted = v }),
	LeaseReassignments:     counter("configvalidator_scan_lease_reassignments_total", "Shard leases revoked and reassigned to another worker.", func(s *Snapshot, v int64) { s.LeaseReassignments = v }),
	HeartbeatsMissed:       counter("configvalidator_lease_heartbeats_missed_total", "Leases whose worker went silent past the lease TTL.", func(s *Snapshot, v int64) { s.HeartbeatsMissed = v }),
	DuplicateResults:       counter("configvalidator_duplicate_results_dropped_total", "Duplicate remote results dropped last-writer-wins.", func(s *Snapshot, v int64) { s.DuplicateResults = v }),
	WorkerRPCRetries:       counter("configvalidator_worker_rpc_retries_total", "Shard dispatches retried against a worker.", func(s *Snapshot, v int64) { s.WorkerRPCRetries = v }),
	InFlightScans:          gauge("configvalidator_inflight_scans", "Validations executing right now.", func(s *Snapshot, v int64) { s.InFlightScans = v }),
	ActiveLeases:           gauge("configvalidator_active_leases", "Shard leases live right now.", func(s *Snapshot, v int64) { s.ActiveLeases = v }),
	QueueDepth:             gauge("configvalidator_server_queue_depth", "HTTP requests waiting for an admission slot.", func(s *Snapshot, v int64) { s.QueueDepth = v }),
	BreakerOpen:            gauge("configvalidator_breaker_open", "Whether the validation circuit breaker is open (1) or closed (0).", func(s *Snapshot, v int64) { s.BreakerOpen = v != 0 }),
	JournalDegraded:        gauge("configvalidator_journal_degraded", "Whether the result journal is degraded (1) — appends failing fast between re-probes — or healthy (0).", func(s *Snapshot, v int64) { s.JournalDegraded = v != 0 }),
	ResultsPass:            result("pass"),
	ResultsFail:            result("fail"),
	ResultsNotApplicable:   result("n/a"),
	ResultsError:           result("error"),
	ResultsDegraded:        result("degraded"),
}

// Collector accumulates metrics. The zero value is not usable; construct
// with NewCollector. A nil *Collector is valid and records nothing.
type Collector struct {
	values [numMetrics]atomic.Int64

	scanLatency histogram

	httpMu      sync.Mutex
	httpCounts  map[routeCode]int64
	httpLatency histogram
}

type routeCode struct {
	route string
	code  int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{httpCounts: make(map[routeCode]int64)}
}

// Add adds delta to m: one event for a counter, a rise (or, negative, a
// fall) for a gauge.
func (c *Collector) Add(m Metric, delta int64) {
	if c == nil {
		return
	}
	c.values[m].Add(delta)
}

// Set sets gauge m to v; the boolean gauges (BreakerOpen, JournalDegraded)
// take 1 for true and 0 for false.
func (c *Collector) Set(m Metric, v int64) {
	if c == nil {
		return
	}
	c.values[m].Store(v)
}

// ScanDone records one completed validation and its latency. The caller
// adds the report's rule results to the Results* rows.
func (c *Collector) ScanDone(d time.Duration) {
	if c == nil {
		return
	}
	c.values[Scans].Add(1)
	c.scanLatency.observe(d)
}

// ScanFailed records a validation attempt that ended in an error and its
// latency. kind names the failure's breakdown row, ScanPanics or
// ScanTimeouts, when it has one.
func (c *Collector) ScanFailed(d time.Duration, kind ...Metric) {
	if c == nil {
		return
	}
	for _, m := range kind {
		c.values[m].Add(1)
	}
	c.values[Scans].Add(1)
	c.values[ScanErrors].Add(1)
	c.scanLatency.observe(d)
}

// RequestDone records one HTTP request against a route pattern.
func (c *Collector) RequestDone(route string, code int, d time.Duration) {
	if c == nil {
		return
	}
	c.httpMu.Lock()
	c.httpCounts[routeCode{route: route, code: code}]++
	c.httpMu.Unlock()
	c.httpLatency.observe(d)
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	// Scans counts validation attempts with a terminal outcome (success,
	// error, panic, or timeout). Errors counts the non-success subset;
	// Panics and Timeouts break Errors down further. Retries counts
	// re-attempts of transient failures (each retried attempt is also
	// counted in Scans when it completes).
	Scans, Errors, Retries, Panics, Timeouts int64
	// InFlightScans and QueueDepth are gauges: validations executing right
	// now and HTTP requests waiting for an admission slot. Shed counts
	// requests rejected at admission; BreakerOpens counts circuit-breaker
	// trips and BreakerOpen reports whether it is open right now (a
	// half-open breaker, whose probe is in flight, is not open).
	InFlightScans, QueueDepth, Shed, BreakerOpens int64
	BreakerOpen                                   bool
	// ParseCacheHits/Misses/Evictions describe the content-addressed
	// parse cache: hits are files whose normalized form was reused,
	// misses had to parse, evictions were dropped at capacity.
	ParseCacheHits, ParseCacheMisses, ParseCacheEvictions int64
	// JournalAppends/Replayed/CorruptRecords/SkippedEntities describe the
	// durable result journal: records appended, records replayed at
	// recovery, corrupt records dropped at recovery, and entities skipped
	// on resume because their journaled digest still matched.
	// ScansAbandoned counts computed fleet results dropped at context
	// cancellation before delivery.
	JournalAppends, JournalReplayed, JournalCorruptRecords, JournalSkippedEntities int64
	ScansAbandoned                                                                 int64
	// Disk-pressure counters: appends that failed (the scan continued,
	// the result was not persisted), the degraded-journal gauge, write
	// re-probes while degraded, and coordinator merge stalls (consumer
	// backpressure paused shard stream reads).
	JournalAppendErrors, JournalReprobes, MergeStalls int64
	JournalDegraded                                   bool
	// Distributed-fleet counters: shards dispatched under a lease, shards
	// fully completed, leases revoked and reassigned, heartbeats missed,
	// duplicate remote results dropped, worker RPC dispatch retries, and
	// the active-leases gauge.
	ShardsDispatched, ShardsCompleted, LeaseReassignments, HeartbeatsMissed int64
	DuplicateResults, WorkerRPCRetries, ActiveLeases                        int64
	// ResultsByStatus tallies individual rule results across all scans,
	// keyed by exposition label ("pass", "fail", "n/a", "error",
	// "degraded"); statuses with no results are absent.
	ResultsByStatus map[string]int64
	// ScanLatency is the scan-duration histogram.
	ScanLatency HistogramSnapshot
	// HTTPRequests counts requests keyed "ROUTE CODE"
	// (e.g. "POST /v1/validate/frame 200").
	HTTPRequests map[string]int64
	// HTTPLatency is the request-duration histogram.
	HTTPLatency HistogramSnapshot
}

// Snapshot copies the current counter values.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		ResultsByStatus: make(map[string]int64, 5),
		ScanLatency:     c.scanLatency.snapshot(),
		HTTPRequests:    make(map[string]int64),
		HTTPLatency:     c.httpLatency.snapshot(),
	}
	for m := range numMetrics {
		v := c.values[m].Load()
		if d := &defs[m]; d.label == "" {
			d.field(&s, v)
		} else if v != 0 {
			s.ResultsByStatus[d.label] = v
		}
	}
	c.httpMu.Lock()
	for k, n := range c.httpCounts {
		s.HTTPRequests[fmt.Sprintf("%s %d", k.route, k.code)] = n
	}
	c.httpMu.Unlock()
	return s
}

// String renders a one-line operator summary, the shape cvwatch prints as
// its periodic progress line.
func (s Snapshot) String() string {
	return fmt.Sprintf("scans=%d errors=%d retries=%d panics=%d timeouts=%d mean=%s p95=%s",
		s.Scans, s.Errors, s.Retries, s.Panics, s.Timeouts,
		s.ScanLatency.Mean().Round(time.Microsecond),
		s.ScanLatency.Quantile(0.95).Round(time.Microsecond))
}

// WritePrometheus renders the collector in the Prometheus text exposition
// format (version 0.0.4): every defs row in table order (a labelled family
// shares one HELP/TYPE header), then the cumulative histogram buckets and
// the per-route HTTP request counts.
func (c *Collector) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for m := range numMetrics {
		d := &defs[m]
		if m == 0 || defs[m-1].name != d.name {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.kind)
		}
		if d.label != "" {
			fmt.Fprintf(&b, "%s{status=%q} %d\n", d.name, d.label, c.values[m].Load())
		} else {
			fmt.Fprintf(&b, "%s %d\n", d.name, c.values[m].Load())
		}
	}

	s := c.Snapshot()
	writeHistogram(&b, "configvalidator_scan_duration_seconds", "Scan latency.", s.ScanLatency)

	fmt.Fprintf(&b, "# HELP configvalidator_http_requests_total HTTP requests by route and status code.\n")
	fmt.Fprintf(&b, "# TYPE configvalidator_http_requests_total counter\n")
	keys := make([]string, 0, len(s.HTTPRequests))
	for k := range s.HTTPRequests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idx := strings.LastIndexByte(k, ' ')
		fmt.Fprintf(&b, "configvalidator_http_requests_total{route=%q,code=%q} %d\n",
			k[:idx], k[idx+1:], s.HTTPRequests[k])
	}

	writeHistogram(&b, "configvalidator_http_request_duration_seconds", "HTTP request latency.", s.HTTPLatency)

	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name, help string, h HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, ub := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(ub), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.Sum.Seconds())
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count)
}

func formatBound(ub float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", ub), "0"), ".")
}
