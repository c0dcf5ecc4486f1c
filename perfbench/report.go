package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// metricBase names the base of each per-layer ratio or per-entity figure,
// as the table prints it next to the value.
var metricBase = map[string]string{
	"crawler.parse_cache_hit_ratio":          "hits / lookups; lookups = crawler.parse_cache_lookups_per_entity × entities of the traced window",
	"crawler.parse_cache_lookups_per_entity": "parse-cache lookups / entities of the traced window",
	"lens.parses_per_entity":                 "parse-cache misses / entities of the traced window; without a cache, files parsed per sampled entity",
	"engine.pool_ratio":                      "Validate at Parallelism 0 / at Parallelism 1 (base: engine.validate_us_per_entity)",
	"engine.eval_self_us_per_entity":         "engine.validate_us_per_entity − crawler.crawl_us_per_entity",
	"journal.bytes_per_record":               "journal file bytes / records of the probe journal",
	"journal.replay_us_per_record":           "journal.Open time / records replayed",
	"entity.reads_per_entity":                "ReadFile calls / entities whose file access was counted",
	"trace.overhead_ratio":                   "untraced entities_per_s / traced entities_per_s in the same run",
	"go.gc_cycles_per_1k_entities":           "GC cycles × 1000 / entities of the untraced window",
}

// writeTrace writes the traced run's "where the time goes" report and its
// spans under the output directory.
func writeTrace(cfg config, rec *record, t *traceSpans, stdout io.Writer) error {
	real, probe := t.real, t.probe
	dir := filepath.Join(cfg.out, cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("trace-seed%d", cfg.seed))
	f, err := os.Create(base + ".md")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "## %s (seed %d)\n\n", cfg.workload, cfg.seed)
	fmt.Fprintf(w, "Machine: %d CPUs (GOMAXPROCS %d), %s, %s; journal on %s, %s.\n\n",
		rec.Stamp.NumCPU, rec.Stamp.GOMAXPROCS, rec.Stamp.CPUModel, rec.Stamp.GoVersion, rec.Stamp.JournalFS, rec.Stamp.FlushPolicy)
	fmt.Fprintf(w, "Inputs: %d entities, %d distinct parsed files against a %d-entry parse cache, %.0f frame bytes per entity.\n\n",
		rec.Inputs.Entities, rec.Inputs.DistinctFiles, rec.Inputs.CacheEntries, rec.Inputs.FrameBytes)
	writeTable(w, "Real path, traced window", attribute(real), t.realEntities)
	writeTable(w, fmt.Sprintf("Layer probes: one call per layer on each of %d sampled entities", t.sampled), attribute(probe), t.sampled)
	fmt.Fprintln(w, "Spans inside the program are not recorded: `engine.validate`, `engine.pool` and `engine.service` (the service's own Validator, on `serve-frame`) include their own crawl and parse, `crawler.crawl` includes its lens parses, and `fleet.entity` and `server.*` include everything the program did for that entity or request except the counted file access. `probe.entity` self time is the benchmark's own time between calls, `client.request` self time is the transport, and on the real path the unattributed time is the benchmark's checks and calibration between units of work.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Metric | Value | Unit | Base |")
	fmt.Fprintln(w, "|---|---:|---|---|")
	for _, d := range perLayer {
		m := rec.Result.Metrics[d.name]
		fmt.Fprintf(w, "| %s | %.4g | %s | %s |\n", d.name, m.Value, m.Unit, metricBase[d.name])
	}
	fmt.Fprintf(w, "\nOutcomes: %d attempted, %d failed. Waste counters: %s.\n", rec.Result.Attempted, rec.Result.Failed, mustJSON(rec.Waste))
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	sf, err := os.Create(base + ".spans.jsonl.gz")
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(sf, gzip.BestSpeed)
	if err != nil {
		sf.Close()
		return err
	}
	sw := bufio.NewWriter(zw)
	if err := writeSpans(sw, append(real, probe...)); err != nil {
		sf.Close()
		return err
	}
	if err := sw.Flush(); err != nil {
		sf.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace %s.md (%d spans in %s.spans.jsonl.gz)\n", base, len(real)+len(probe), base)
	return nil
}
