package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/dist"
	"configvalidator/internal/entity"
	"configvalidator/internal/fixtures"
	"configvalidator/internal/frames"
	"configvalidator/internal/server"
)

const (
	// fleetSize is the image count of the fleet workloads: its distinct
	// parsed files (about 455) fit well inside the 4096-entry parse cache.
	fleetSize = 200
	// servePoolSize is the serve-frame image pool: its distinct parsed
	// files (about 5000) exceed the 4096-entry cache, so the LRU evicts.
	servePoolSize = 2600
	misconfigRate = 0.3
	// serveClients is the closed-loop client count of serve-frame; no
	// workload drives more concurrency than the 2 CPUs it was sized on.
	serveClients = 2
	// scanTimeout only guards the benchmark against a hung program.
	scanTimeout = 2 * time.Minute
	// spanHeader carries a client span key to the server-side span wrapper
	// in traced runs.
	spanHeader = "X-Perfbench-Span"
)

// frameTime is the capture time stamped into every frame, so that frames
// are byte-identical for one seed.
var frameTime = time.Unix(1500000000, 0).UTC()

var workloadNames = []string{"fleet-cold", "fleet-resume", "dist-2w", "serve-frame"}

// window is what one measurement window delivered.
type window struct {
	entities  int
	failed    int
	latencies []float64 // ms: one per fleet scan, or per serve-frame request
	rates     []float64 // entities/s: one per unit of work
	// cpu, allocated and gcCycles are what the units of work consumed,
	// without the benchmark's checks between them.
	cpu       time.Duration
	allocated uint64
	gcCycles  uint64
	// calibration holds the calibration kernel's times (ns), taken after
	// every unit of work.
	calibration []float64
}

// unit is the process state when a unit of work began.
type unit struct {
	start          time.Time
	cpu            time.Duration
	allocs, cycles uint64
}

var runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func processState() (cpu time.Duration, allocs, cycles uint64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	metrics.Read(runtimeSamples)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), runtimeSamples[0].Value.Uint64(), runtimeSamples[1].Value.Uint64()
}

func (w *window) begin() unit {
	cpu, allocs, cycles := processState()
	return unit{start: time.Now(), cpu: cpu, allocs: allocs, cycles: cycles}
}

// end closes a unit of work that delivered entities, then calibrates. It
// returns the unit's wall time.
func (w *window) end(u unit, entities int) time.Duration {
	elapsed := time.Since(u.start)
	cpu, allocs, cycles := processState()
	w.cpu += cpu - u.cpu
	w.allocated += allocs - u.allocs
	w.gcCycles += cycles - u.cycles
	w.entities += entities
	w.rates = append(w.rates, float64(entities)/elapsed.Seconds())
	for k := 0; k < 3; k++ {
		w.calibration = append(w.calibration, float64(calibrate()))
	}
	return elapsed
}

// endScan closes a unit of work that is one fleet scan: the caller's
// request is the whole scan, so its wall time is one latency sample.
func (w *window) endScan(u unit, results []configvalidator.FleetResult) {
	w.latencies = append(w.latencies, float64(w.end(u, len(results)))/1e6)
}

// waste holds the program's own counters for work that was wasted or
// refused. Every one is expected to stay 0.
type waste struct {
	ScanRetries         int64 `json:"scan_retries"`
	ScanTimeouts        int64 `json:"scan_timeouts"`
	JournalAppendErrors int64 `json:"journal_append_errors"`
	LeaseReassignments  int64 `json:"lease_reassignments"`
	DuplicatesDropped   int64 `json:"duplicates_dropped"`
	RPCRetries          int64 `json:"rpc_retries"`
	Shed                int64 `json:"shed"`
}

func (w *waste) add(s configvalidator.MetricsSnapshot) {
	w.ScanRetries += s.Retries
	w.ScanTimeouts += s.Timeouts
	w.JournalAppendErrors += s.JournalAppendErrors
	w.LeaseReassignments += s.LeaseReassignments
	w.DuplicatesDropped += s.DuplicateResults
	w.RPCRetries += s.WorkerRPCRetries
	w.Shed += s.Shed
}

func (w waste) nonZero() bool { return w != waste{} }

// workload is one benchmark workload after set-up.
type workload interface {
	// measure repeats the workload's unit of work until deadline and checks
	// every output against ref. A non-nil tr records spans; entities fed
	// in-process are then wrapped so their file access is counted into io.
	measure(deadline time.Time, ref *reference, tr *tracer, io *ioCounts) (window, error)
	// inputs are the generated entities, in generation order.
	inputs() []entity.Entity
	// waste sums the program's waste counters over the whole run.
	waste() waste
	// collectors are the telemetry collectors of the program's long-lived
	// validators; the per-layer table reads parse-cache counters from them.
	collectors() []*configvalidator.Collector
	close()
}

func setupWorkload(name string, seed int64, dir string, traced bool) (workload, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	switch name {
	case "fleet-cold":
		return newFleetCold(seed)
	case "fleet-resume":
		return newFleetResume(seed, dir)
	case "dist-2w":
		return newDist(seed, traced)
	case "serve-frame":
		return newServeFrame(seed, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func generateFleet(n int, seed int64) ([]entity.Entity, error) {
	reg, _ := fixtures.Fleet(n, fixtures.Profile{Seed: seed, MisconfigRate: misconfigRate})
	var ents []entity.Entity
	for _, ref := range reg.Images() {
		img, err := reg.Pull(ref)
		if err != nil {
			return nil, err
		}
		ents = append(ents, img.Entity())
	}
	return ents, nil
}

// wrap gives each entity a counting wrapper for one traced window.
func wrap(ents []entity.Entity, tr *tracer, io *ioCounts) []entity.Entity {
	if tr == nil {
		return ents
	}
	out := make([]entity.Entity, len(ents))
	for i, e := range ents {
		out[i] = &ioEntity{Entity: e, counts: io, tr: tr, group: int64(i)}
	}
	return out
}

// scanFleet runs one ValidateFleet call over ents and drains it. In a
// traced window each entity's time, from hand-off to the program until
// its result arrives, becomes a spanName span under root; an empty
// spanName records none, for schedulers that queue entities before
// working on them, where the span would be mostly waiting.
func scanFleet(v *configvalidator.Validator, ents []entity.Entity, opts configvalidator.FleetOptions,
	tr *tracer, root uint64, spanName string) []configvalidator.FleetResult {
	ctx, cancel := context.WithTimeout(context.Background(), scanTimeout)
	defer cancel()
	spans := tr != nil && spanName != ""
	var (
		handoff []atomic.Int64
		keys    []uint64
		index   map[string]int
	)
	if spans {
		handoff = make([]atomic.Int64, len(ents))
		keys = make([]uint64, len(ents))
		index = make(map[string]int, len(ents))
		for i, e := range ents {
			index[e.Name()] = i
		}
	}
	ch := make(chan configvalidator.Entity)
	go func() {
		defer close(ch)
		for i, e := range ents {
			if ie, ok := e.(*ioEntity); ok {
				parent := root
				if spans {
					keys[i] = tr.key()
					parent = keys[i]
				}
				ie.parent.Store(parent)
			}
			select {
			case ch <- e:
			case <-ctx.Done():
				return
			}
			if spans {
				handoff[i].Store(time.Now().UnixNano())
			}
		}
	}()
	start := time.Now()
	results := make([]configvalidator.FleetResult, 0, len(ents))
	for res := range v.ValidateFleet(ctx, ch, opts) {
		if i, ok := index[res.Entity]; ok {
			h := handoff[i].Load()
			if h == 0 {
				h = start.UnixNano()
			}
			tr.record(keys[i], root, int64(i), spanName, time.Unix(0, h), time.Now())
		}
		results = append(results, res)
	}
	return results
}

// fleetCold is a one-shot CLI scan: a fresh Validator per scan, no parse
// cache, no journal, default fleet options.
type fleetCold struct {
	ents  []entity.Entity
	total waste
}

func newFleetCold(seed int64) (*fleetCold, error) {
	ents, err := generateFleet(fleetSize, seed)
	if err != nil {
		return nil, err
	}
	return &fleetCold{ents: ents}, nil
}

func (w *fleetCold) measure(deadline time.Time, ref *reference, tr *tracer, io *ioCounts) (window, error) {
	var win window
	ents := wrap(w.ents, tr, io)
	for time.Now().Before(deadline) {
		c := configvalidator.NewCollector()
		root := tr.key()
		u := win.begin()
		v, err := configvalidator.New(configvalidator.WithTelemetry(c))
		if err != nil {
			return win, err
		}
		results := scanFleet(v, ents, configvalidator.FleetOptions{}, tr, root, "fleet.entity")
		tr.record(root, 0, -1, "fleet.scan", u.start, time.Now())
		win.endScan(u, results)
		win.failed += ref.checkScan(results, false)
		w.total.add(c.Snapshot())
	}
	return win, nil
}

func (w *fleetCold) inputs() []entity.Entity                  { return w.ents }
func (w *fleetCold) waste() waste                             { return w.total }
func (w *fleetCold) collectors() []*configvalidator.Collector { return nil }
func (w *fleetCold) close()                                   {}

// fleetResume is crash-safe scanning resumed over a completed journal,
// with the warm parse cache cvworker and cvwatch run with: set-up writes
// one journal at the default flush policy, and every scan reopens it,
// replaying every record, and re-scans the unchanged fleet, so that every
// entity is replayed instead of scanned.
type fleetResume struct {
	ents []entity.Entity
	v    *configvalidator.Validator
	c    *configvalidator.Collector
	path string
}

func newFleetResume(seed int64, dir string) (*fleetResume, error) {
	ents, err := generateFleet(fleetSize, seed)
	if err != nil {
		return nil, err
	}
	c := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(c),
		configvalidator.WithParseCache(configvalidator.NewParseCache(configvalidator.DefaultParseCacheSize)))
	if err != nil {
		return nil, err
	}
	w := &fleetResume{ents: ents, v: v, c: c, path: filepath.Join(dir, "fleet.cvj")}
	warm := drain(v.ValidateFleet(context.Background(), feed(ents), configvalidator.FleetOptions{}))
	if len(warm) != len(ents) {
		return nil, fmt.Errorf("warm-up scan delivered %d of %d results", len(warm), len(ents))
	}
	j, err := w.open()
	if err != nil {
		return nil, err
	}
	drain(v.ValidateFleet(context.Background(), feed(ents), configvalidator.FleetOptions{Journal: j}))
	if err := j.Close(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *fleetResume) open() (*configvalidator.Journal, error) {
	return configvalidator.OpenJournal(w.path, configvalidator.JournalOptions{Metrics: w.c})
}

func (w *fleetResume) measure(deadline time.Time, ref *reference, tr *tracer, io *ioCounts) (window, error) {
	var win window
	ents := wrap(w.ents, tr, io)
	for time.Now().Before(deadline) {
		root := tr.key()
		u := win.begin()
		var j *configvalidator.Journal
		var err error
		tr.timed(root, -1, "journal.open", func() { j, err = w.open() })
		if err != nil {
			return win, err
		}
		results := scanFleet(w.v, ents, configvalidator.FleetOptions{Journal: j}, tr, root, "fleet.entity")
		tr.timed(root, -1, "journal.close", func() { err = j.Close() })
		if err != nil {
			return win, err
		}
		tr.record(root, 0, -1, "fleet.scan", u.start, time.Now())
		win.endScan(u, results)
		win.failed += ref.checkScan(results, true)
	}
	return win, nil
}

func (w *fleetResume) inputs() []entity.Entity { return w.ents }
func (w *fleetResume) waste() waste {
	var t waste
	t.add(w.c.Snapshot())
	return t
}
func (w *fleetResume) collectors() []*configvalidator.Collector {
	return []*configvalidator.Collector{w.c}
}
func (w *fleetResume) close() {}

// cluster is a coordinator's view of two in-process cvworkers: each a
// server.New Validator with the default parse cache behind httptest on
// loopback. The workers keep no shard journal segments: with them a third
// of a scan's time was segment fsyncs, and contention for the host's disk
// then swamped what dist-2w is for (see the README).
type cluster struct {
	servers []*httptest.Server
	urls    []string
	workers []*configvalidator.Collector
	// traced is set for the whole run when spans are wanted; the worker
	// handlers then record server.shard spans.
	traced atomic.Pointer[tracer]
}

func newCluster(traced bool) (*cluster, error) {
	cl := &cluster{}
	for i := 0; i < 2; i++ {
		c := configvalidator.NewCollector()
		v, err := configvalidator.New(configvalidator.WithTelemetry(c), configvalidator.WithParallelism(0),
			configvalidator.WithParseCache(configvalidator.NewParseCache(configvalidator.DefaultParseCacheSize)))
		if err != nil {
			cl.close()
			return nil, err
		}
		s, err := server.New(v)
		if err != nil {
			cl.close()
			return nil, err
		}
		var h http.Handler = s.Handler()
		if traced {
			h = spanHandler(h, &cl.traced, "server.shard")
		}
		ts := httptest.NewServer(h)
		cl.servers = append(cl.servers, ts)
		cl.urls = append(cl.urls, ts.URL)
		cl.workers = append(cl.workers, c)
	}
	return cl, nil
}

func (cl *cluster) close() {
	for _, s := range cl.servers {
		s.Close()
	}
}

// coordinator builds a coordinator at default options; with tr set its
// worker RPCs go through a timing transport.
func (cl *cluster) coordinator(tr *tracer, st *shardTimer) *dist.Coordinator {
	var opts dist.Options
	if tr != nil {
		opts.HTTPClient = &http.Client{Transport: st}
	}
	return dist.NewCoordinator(cl.urls, opts)
}

// distScan is the scale-out path: a coordinator at default dist.Options
// sharding the fleet over two in-process workers.
type distScan struct {
	ents []entity.Entity
	cl   *cluster
	v    *configvalidator.Validator
	c    *configvalidator.Collector
	// shards is the timing transport of the last traced window.
	shards *shardTimer
}

func newDist(seed int64, traced bool) (*distScan, error) {
	ents, err := generateFleet(fleetSize, seed)
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(traced)
	if err != nil {
		return nil, err
	}
	c := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(c), configvalidator.WithParallelism(0))
	if err != nil {
		cl.close()
		return nil, err
	}
	w := &distScan{ents: ents, cl: cl, v: v, c: c}
	warm := drain(v.ValidateFleet(context.Background(), feed(ents), configvalidator.FleetOptions{Scheduler: cl.coordinator(nil, nil)}))
	if len(warm) != len(ents) {
		cl.close()
		return nil, fmt.Errorf("warm-up scan delivered %d of %d results", len(warm), len(ents))
	}
	return w, nil
}

func (w *distScan) measure(deadline time.Time, ref *reference, tr *tracer, io *ioCounts) (window, error) {
	var win window
	ents := wrap(w.ents, tr, io)
	if tr != nil {
		w.shards = newShardTimer(tr)
		w.cl.traced.Store(tr)
		defer w.cl.traced.Store(nil)
	}
	coord := w.cl.coordinator(tr, w.shards)
	for time.Now().Before(deadline) {
		root := tr.key()
		if w.shards != nil {
			w.shards.root.Store(root)
		}
		u := win.begin()
		results := scanFleet(w.v, ents, configvalidator.FleetOptions{Scheduler: coord}, tr, root, "")
		tr.record(root, 0, -1, "dist.scan", u.start, time.Now())
		win.endScan(u, results)
		win.failed += ref.checkScan(results, false)
	}
	return win, nil
}

func (w *distScan) inputs() []entity.Entity { return w.ents }
func (w *distScan) waste() waste {
	var t waste
	t.add(w.c.Snapshot())
	for _, c := range w.cl.workers {
		t.add(c.Snapshot())
	}
	return t
}
func (w *distScan) collectors() []*configvalidator.Collector { return w.cl.workers }
func (w *distScan) close()                                   { w.cl.close() }

// serveFrame is registry or CI callers that each wait for their report:
// closed-loop clients POSTing pre-captured frames to /v1/validate/frame
// on a server configured as cvserver defaults it.
type serveFrame struct {
	ents   []entity.Entity
	names  []string
	frames [][]byte
	// order draws each client's next frame; it lives as long as the
	// workload, so a second window continues the seeded sequence instead
	// of replaying requests whose files the first left in the cache.
	order  []*rand.Rand
	v      *configvalidator.Validator
	c      *configvalidator.Collector
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	traced atomic.Pointer[tracer]
}

func newServeFrame(seed int64, traced bool) (*serveFrame, error) {
	ents, err := generateFleet(servePoolSize, seed)
	if err != nil {
		return nil, err
	}
	w := &serveFrame{ents: ents}
	for c := 0; c < serveClients; c++ {
		w.order = append(w.order, rand.New(rand.NewSource(seed*1_000_003+int64(c))))
	}
	decoded := make([]entity.Entity, len(ents))
	for i, e := range ents {
		b, err := captureFrame(e)
		if err != nil {
			return nil, err
		}
		w.frames = append(w.frames, b)
		w.names = append(w.names, e.Name())
		f, err := frames.Read(bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		decoded[i] = f.Entity()
	}
	w.c = configvalidator.NewCollector()
	w.v, err = configvalidator.New(configvalidator.WithTelemetry(w.c), configvalidator.WithParallelism(0),
		configvalidator.WithParseCache(configvalidator.NewParseCache(configvalidator.DefaultParseCacheSize)))
	if err != nil {
		return nil, err
	}
	if w.srv, err = server.New(w.v); err != nil {
		return nil, err
	}
	var h http.Handler = w.srv.Handler()
	if traced {
		h = spanHandler(h, &w.traced, "server.handler")
	}
	w.ts = httptest.NewServer(h)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	// Warm the parse cache and verdict memo in-process: one pass over the
	// pool leaves the LRU in the state the request stream keeps it in.
	warm := drain(w.v.ValidateFleet(context.Background(), feed(decoded), configvalidator.FleetOptions{}))
	if len(warm) != len(ents) {
		w.close()
		return nil, fmt.Errorf("warm-up scan delivered %d of %d results", len(warm), len(ents))
	}
	return w, nil
}

func captureFrame(e entity.Entity) ([]byte, error) {
	f, err := frames.Capture(e, nil, frameTime)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// serveSlice is the length of one serve-frame unit of work; the rate is
// the median over the slices of a run.
const serveSlice = 500 * time.Millisecond

func (w *serveFrame) measure(deadline time.Time, ref *reference, tr *tracer, _ *ioCounts) (window, error) {
	var win window
	if tr != nil {
		w.traced.Store(tr)
		defer w.traced.Store(nil)
	}
	url := w.ts.URL + "/v1/validate/frame"
	type clientLog struct {
		latencies []float64
		failed    int
		err       error
	}
	var sent atomic.Int64
	for time.Now().Before(deadline) {
		end := time.Now().Add(serveSlice)
		if end.After(deadline) {
			end = deadline
		}
		logs := make([]clientLog, serveClients)
		var wg sync.WaitGroup
		u := win.begin()
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				lg := &logs[c]
				for time.Now().Before(end) {
					i := w.order[c].Intn(len(w.frames))
					req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(w.frames[i]))
					if err != nil {
						lg.err = err
						return
					}
					key := tr.key()
					if tr != nil {
						req.Header.Set(spanHeader, strconv.FormatUint(key, 10))
					}
					t0 := time.Now()
					status, body, err := post(w.client, req)
					t1 := time.Now()
					tr.record(key, 0, sent.Add(1), "client.request", t0, t1)
					lg.latencies = append(lg.latencies, float64(t1.Sub(t0))/1e6)
					if err != nil || !ref.checkBody(w.names[i], status, body) {
						lg.failed++
					}
				}
			}(c)
		}
		wg.Wait()
		n := 0
		for _, lg := range logs {
			if lg.err != nil {
				return win, lg.err
			}
			win.latencies = append(win.latencies, lg.latencies...)
			n += len(lg.latencies)
			win.failed += lg.failed
		}
		win.end(u, n)
	}
	return win, nil
}

// post sends req and reads the whole response body.
func post(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (w *serveFrame) inputs() []entity.Entity { return w.ents }

// releaseInputs drops the generated entities once the reference is built:
// requests carry frames, and the entities would only add to the heap the
// run measures and to the garbage collector's work.
func (w *serveFrame) releaseInputs() { w.ents = nil }
func (w *serveFrame) waste() waste {
	var t waste
	t.add(w.c.Snapshot())
	return t
}
func (w *serveFrame) collectors() []*configvalidator.Collector {
	return []*configvalidator.Collector{w.c}
}
func (w *serveFrame) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// spanHandler records a span around every request the wrapped handler
// serves while a tracer is set, as a child of the client span named in the
// request's spanHeader.
func spanHandler(h http.Handler, tr *atomic.Pointer[tracer], name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(0, parent, 0, name, start, time.Now())
	})
}

// shardTimer is the timing transport of a traced coordinator: it times
// each shard RPC from request to the end of the streamed response and
// counts the bytes on the wire both ways.
type shardTimer struct {
	base http.RoundTripper
	tr   *tracer
	root atomic.Uint64
	wire atomic.Int64
	mu   sync.Mutex
	durs []time.Duration
}

func newShardTimer(tr *tracer) *shardTimer {
	return &shardTimer{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
}

func (s *shardTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/shard/scan" {
		return s.base.RoundTrip(req)
	}
	key := s.tr.key()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(key, 10))
	start := time.Now()
	if req.ContentLength > 0 {
		s.wire.Add(req.ContentLength)
	}
	resp, err := s.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		end := time.Now()
		s.wire.Add(n)
		s.tr.record(key, s.root.Load(), 0, "dist.shard", start, end)
		s.mu.Lock()
		s.durs = append(s.durs, end.Sub(start))
		s.mu.Unlock()
	}}
	return resp, nil
}

// timedBody reports the bytes read once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
