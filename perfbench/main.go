// Command perfbench is the repository benchmark. It runs one named
// workload against the program's real entry points (ValidateFleet, the
// dist coordinator over in-process workers, the HTTP service behind
// httptest), checks every output against a serial reference, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). The last line of standard output is the JSON result.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare perfbench/out/a perfbench/out/b
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/entity"
	"configvalidator/internal/frames"
	"configvalidator/internal/lens"
	"configvalidator/internal/rules"
	"configvalidator/internal/telemetry"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupRepeats = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// inputs describes what the workload's seed generated.
type inputs struct {
	Entities      int     `json:"entities"`
	DistinctFiles int     `json:"distinct_parsed_files"`
	CacheEntries  int     `json:"parse_cache_entries"`
	FrameBytes    float64 `json:"frame_bytes_per_entity"`
}

// record is everything one run measured; it is written under the output
// directory so that runs can be compared later (--compare).
type record struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Trace        bool      `json:"trace"`
	Stamp        stamp     `json:"stamp"`
	Inputs       inputs    `json:"inputs"`
	Waste        waste     `json:"waste"`
	SetupSamples []float64 `json:"setup_samples_s"`
	Samples      int       `json:"latency_samples"`
	// SpeedFactor is the run's calibration time over the reference CPU's
	// (see calibrate.go); Measured holds the metrics before scaling by it.
	SpeedFactor float64            `json:"speed_factor"`
	Measured    map[string]float64 `json:"measured"`
	Result      result             `json:"result"`
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join("perfbench", "out"), "directory for run records and traced tables")
	compare := fs.Bool("compare", false, "compare the run records in one or two directories given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(os.Stdout, fs.Args())
	}
	if cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	rec, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func run(cfg config, stdout io.Writer) (*record, error) {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", cfg.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	rec := &record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace}
	var w workload
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		w, err = setupWorkload(cfg.workload, cfg.seed, filepath.Join(work, fmt.Sprintf("setup%d", k)), cfg.trace)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", cfg.workload, err)
		}
		rec.SetupSamples = append(rec.SetupSamples, time.Since(start).Seconds())
	}
	defer w.close()

	ref, err := buildReference(w.inputs())
	if err != nil {
		return nil, err
	}
	rec.Stamp = machineStamp(work)
	if rec.Inputs, err = describeInputs(w.inputs()); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "stamp %s\n", mustJSON(rec.Stamp))
	fmt.Fprintf(stdout, "inputs %s\n", mustJSON(rec.Inputs))
	// A copy, so that the sample does not keep every input reachable.
	sample := append([]entity.Entity(nil), w.inputs()[:min(probeSampleSize, len(w.inputs()))]...)
	if r, ok := w.(interface{ releaseInputs() }); ok {
		r.releaseInputs()
	}

	defs := endToEnd
	var values map[string]float64
	var spans *traceSpans
	if cfg.trace {
		defs = perLayer
		values, spans, err = tracedRun(cfg, w, ref, sample, work, rec)
	} else {
		values, err = untracedRun(cfg, w, ref, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Waste = w.waste()
	rec.Measured = values
	rec.Result.Metrics = metricSet(defs, values, rec.SpeedFactor)
	if spans != nil {
		if err := writeTrace(cfg, rec, spans, stdout); err != nil {
			return nil, err
		}
	}
	if rec.Waste.nonZero() {
		fmt.Fprintf(stdout, "WARNING waste counters are non-zero: %s\n", mustJSON(rec.Waste))
	} else {
		fmt.Fprintf(stdout, "waste %s\n", mustJSON(rec.Waste))
	}
	rec.Result.Correct = rec.Result.Failed == 0
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Result.Metrics[name]
		fmt.Fprintf(stdout, "metric %-40s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "speed_factor %.4f (times divided by it, rates multiplied; measured values in the run record)\n", rec.SpeedFactor)
	fmt.Fprintf(stdout, "outcomes attempted=%d failed=%d failed_ratio=%g latency_samples=%d\n",
		rec.Result.Attempted, rec.Result.Failed, float64(rec.Result.Failed)/float64(max(rec.Result.Attempted, 1)), rec.Samples)
	if err := saveRecord(cfg, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

func untracedRun(cfg config, w workload, ref *reference, rec *record) (map[string]float64, error) {
	runtime.GC()
	win, err := w.measure(time.Now().Add(time.Duration(cfg.seconds)*time.Second), ref, nil, nil)
	if err != nil {
		return nil, err
	}
	if win.entities == 0 {
		return nil, errors.New("no entity was delivered in the measured window")
	}
	n := float64(win.entities)
	rec.Samples = len(win.latencies)
	rec.Result.Attempted = win.entities
	rec.Result.Failed = win.failed
	rec.SpeedFactor = speedFactor(win.calibration)
	values := map[string]float64{
		"setup_s":             median(rec.SetupSamples),
		"entities_per_s":      median(win.rates),
		"request_p50_ms":      percentile(win.latencies, 0.5),
		"request_p90_ms":      percentile(win.latencies, 0.9),
		"cpu_ms_per_entity":   float64(win.cpu) / 1e6 / n,
		"alloc_kb_per_entity": float64(win.allocated) / 1024 / n,
	}
	// The live heap is read once the window's own samples are garbage, so
	// that it holds the program's state and the inputs only.
	win = window{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	values["heap_after_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	return values, nil
}

// traceSpans is what a traced run recorded: spans of the real path's
// traced window and of the layer probes, with the entity counts behind
// each.
type traceSpans struct {
	real, probe           []span
	realEntities, sampled int
}

func tracedRun(cfg config, w workload, ref *reference, sample []entity.Entity, work string, rec *record) (map[string]float64, *traceSpans, error) {
	// Two windows of a fifth of the run each (1 to 3 s): per-layer figures
	// settle quickly, and spans are kept in memory until the run ends.
	part := min(3*time.Second, max(time.Second, time.Duration(cfg.seconds)*time.Second/5))
	runtime.GC()
	base, err := w.measure(time.Now().Add(part), ref, nil, nil)
	if err != nil {
		return nil, nil, err
	}

	tr := newTracer()
	var io ioCounts
	runtime.GC()
	before := snapshots(w.collectors())
	win, err := w.measure(time.Now().Add(part), ref, tr, &io)
	if err != nil {
		return nil, nil, err
	}
	after := snapshots(w.collectors())
	if base.entities == 0 || win.entities == 0 {
		return nil, nil, errors.New("no entity was delivered in the measured window")
	}

	ptr := newTracer()
	p := &probes{tr: ptr, ref: ref, dir: filepath.Join(work, "probes"), sample: sample, layer: map[string]float64{}}
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := p.resolve(); err != nil {
		return nil, nil, err
	}
	if err := p.pipeline(); err != nil {
		return nil, nil, err
	}
	if err := p.fleet(); err != nil {
		return nil, nil, err
	}
	ioEntities := win.entities
	switch wl := w.(type) {
	case *serveFrame:
		// The service decodes frames itself, so entity access is counted by
		// validating the sampled frames in-process through its Validator.
		io = ioCounts{}
		ioEntities = 0
		for i, fb := range p.frames {
			f, err := frames.Read(bytes.NewReader(fb))
			if err != nil {
				return nil, nil, err
			}
			e := &ioEntity{Entity: f.Entity(), counts: &io, tr: ptr, group: int64(i)}
			key := ptr.key()
			e.parent.Store(key)
			start := time.Now()
			rep, err := wl.v.Validate(e)
			ptr.record(key, 0, int64(i), "engine.service", start, time.Now())
			p.checkReport(sample[i].Name(), rep, err)
			ioEntities++
		}
		p.serverMetrics(wl.srv.Metrics().Snapshot(), before.server)
		if err := p.dist(); err != nil {
			return nil, nil, err
		}
	case *distScan:
		// Coordinator counters cover the whole run: all of it is waste.
		p.distMetrics(wl.shards, win.entities, wl.c.Snapshot(), telemetry.Snapshot{})
		if err := p.server(); err != nil {
			return nil, nil, err
		}
	default:
		if err := p.server(); err != nil {
			return nil, nil, err
		}
		if err := p.dist(); err != nil {
			return nil, nil, err
		}
	}

	n := float64(ioEntities)
	p.layer["entity.reads_per_entity"] = float64(io.reads.Load()) / n
	p.layer["entity.bytes_read_per_entity"] = float64(io.bytes.Load()) / n
	p.layer["entity.walks_per_entity"] = float64(io.walks.Load()) / n
	p.layer["entity.io_us_per_entity"] = float64(io.ioNS.Load()) / 1e3 / n
	hits := after.cacheHits - before.cacheHits
	misses := after.cacheMisses - before.cacheMisses
	lookups := hits + misses
	p.layer["crawler.parse_cache_hit_ratio"] = 0
	if lookups > 0 {
		p.layer["crawler.parse_cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	p.layer["crawler.parse_cache_lookups_per_entity"] = float64(lookups) / float64(win.entities)
	p.layer["crawler.parse_cache_evictions"] = float64(after.cacheEvictions - before.cacheEvictions)
	if w.collectors() == nil {
		// No parse cache: every crawled file parses on every scan.
		p.layer["lens.parses_per_entity"] = p.lensParses
	} else {
		p.layer["lens.parses_per_entity"] = float64(misses) / float64(win.entities)
	}
	total := w.waste()
	p.layer["fleet.scan_retries"] = float64(total.ScanRetries)
	p.layer["fleet.scan_timeouts"] = float64(total.ScanTimeouts)
	p.layer["journal.append_errors"] = float64(total.JournalAppendErrors)
	p.layer["go.gc_cycles_per_1k_entities"] = float64(base.gcCycles) * 1000 / float64(base.entities)
	p.layer["trace.overhead_ratio"] = median(base.rates) / median(win.rates)

	rec.Samples = len(win.latencies)
	rec.SpeedFactor = speedFactor(append(base.calibration, win.calibration...))
	rec.Result.Attempted = base.entities + win.entities + p.checked
	rec.Result.Failed = base.failed + win.failed + p.failed
	return p.layer, &traceSpans{real: tr.snapshot(), probe: ptr.snapshot(), realEntities: win.entities, sampled: len(sample)}, nil
}

// collectorTotals sums the counters the per-layer table reads from the
// program's collectors at one instant; server is the first collector's
// snapshot, which on serve-frame is the service's.
type collectorTotals struct {
	cacheHits, cacheMisses, cacheEvictions int64
	server                                 telemetry.Snapshot
}

func snapshots(cs []*configvalidator.Collector) collectorTotals {
	var t collectorTotals
	for i, c := range cs {
		s := c.Snapshot()
		t.cacheHits += s.ParseCacheHits
		t.cacheMisses += s.ParseCacheMisses
		t.cacheEvictions += s.ParseCacheEvictions
		if i == 0 {
			t.server = s
		}
	}
	return t
}

// metricSet keeps exactly the metrics defs names, in their units, scaled
// to the reference CPU by factor; a metric the run did not measure is an
// error in the benchmark itself.
func metricSet(defs []metricDef, values map[string]float64, factor float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: metric not measured: " + d.name)
		}
		out[d.name] = metricValue{Value: scale(d.unit, v, factor), Unit: d.unit}
	}
	return out
}

// describeInputs reports the input properties the workload was chosen
// for: entity count, distinct parsed files against the parse cache, and
// frame size.
func describeInputs(ents []entity.Entity) (inputs, error) {
	man, err := rules.Manifest()
	if err != nil {
		return inputs{}, err
	}
	reg := lens.Default()
	distinct := map[string]bool{}
	frameBytes := 0
	for _, e := range ents {
		for _, entry := range man.EnabledEntries() {
			for _, root := range entry.ConfigSearchPaths {
				werr := e.Walk(root, func(fi entity.FileInfo) error {
					if fi.IsDir() {
						return nil
					}
					l, ok := reg.ForFile(fi.Path)
					if !ok {
						return nil
					}
					data, err := e.ReadFile(fi.Path)
					if err != nil {
						return err
					}
					sum := sha256.Sum256(data)
					distinct[l.Name()+"\x00"+fi.Path+"\x00"+string(sum[:])] = true
					return nil
				})
				if werr != nil && !errors.Is(werr, entity.ErrNotExist) {
					return inputs{}, werr
				}
			}
		}
		fb, err := captureFrame(e)
		if err != nil {
			return inputs{}, err
		}
		frameBytes += len(fb)
	}
	return inputs{
		Entities:      len(ents),
		DistinctFiles: len(distinct),
		CacheEntries:  configvalidator.DefaultParseCacheSize,
		FrameBytes:    float64(frameBytes) / float64(max(len(ents), 1)),
	}, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func saveRecord(cfg config, rec *record) error {
	dir := filepath.Join(cfg.out, cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed%d-trace%d.json", cfg.seed, trace)), append(b, '\n'), 0o644)
}
