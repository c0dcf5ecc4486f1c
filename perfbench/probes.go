package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	configvalidator "configvalidator"
	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/frames"
	"configvalidator/internal/journal"
	"configvalidator/internal/lens"
	"configvalidator/internal/rules"
	"configvalidator/internal/server"
	"configvalidator/internal/telemetry"
)

// probeSampleSize bounds the entities the layer probes run over: the whole
// fleet on the fleet workloads, the first 200 of the serve-frame pool.
const probeSampleSize = 200

// probes calls each layer's exported functions directly, one at a time, on
// a sample of the workload's own entities, recording a span around every
// call and checking every report the calls produce against the reference.
type probes struct {
	tr      *tracer
	ref     *reference
	dir     string
	sample  []entity.Entity
	frames  [][]byte // the sample captured as frames
	layer   map[string]float64
	checked int
	failed  int
	// lensParses counts lens parses per sampled entity; without a parse
	// cache every one of them happens on every scan.
	lensParses float64
}

func (p *probes) check(ok bool) {
	p.checked++
	if !ok {
		p.failed++
	}
}

func (p *probes) checkReport(name string, rep *configvalidator.Report, err error) {
	p.check(err == nil && p.ref.checkResult(configvalidator.FleetResult{Entity: name, Report: rep}, false))
}

// resolve times cvl.ResolveRules over every enabled built-in manifest
// entry: the rule load every fresh Validator pays once.
func (p *probes) resolve() error {
	man, err := rules.Manifest()
	if err != nil {
		return err
	}
	read := rules.Reader()
	var passes []float64
	for k := 0; k < 5; k++ {
		d := p.tr.timed(0, -1, "cvl.resolve", func() {
			for _, e := range man.EnabledEntries() {
				if _, rerr := cvl.ResolveRules(read, e.CVLFile); rerr != nil && err == nil {
					err = rerr
				}
			}
		})
		passes = append(passes, ms(d))
	}
	p.layer["cvl.resolve_ms"] = median(passes)
	return err
}

// pipeline walks each sampled entity through the per-entity layer calls
// in pipeline order. Entity access inside each call is recorded as child
// spans of that call.
func (p *probes) pipeline() error {
	man, err := rules.Manifest()
	if err != nil {
		return err
	}
	entries := man.EnabledEntries()
	vSerial, err := configvalidator.New(configvalidator.WithParallelism(1))
	if err != nil {
		return err
	}
	vPool, err := configvalidator.New(configvalidator.WithParallelism(0))
	if err != nil {
		return err
	}
	cr := crawler.New(nil, crawler.Options{})
	reg := lens.Default()
	jpath := filepath.Join(p.dir, "probe.cvj")
	j, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		return err
	}
	defer func() { _ = j.Close() }()

	var (
		digestT, crawlT, serialT, poolT, encT, decT time.Duration
		appends                                     []float64
		frameBytes                                  int
		lensT                                       = map[string]time.Duration{}
		lensN                                       = map[string]int{}
		digests                                     = make([]string, len(p.sample))
		io                                          ioCounts
	)
	for i, raw := range p.sample {
		e := &ioEntity{Entity: raw, counts: &io, tr: p.tr, group: int64(i)}
		root := p.tr.key()
		start := time.Now()
		call := func(name string, fn func()) time.Duration {
			k := p.tr.key()
			e.parent.Store(k)
			t0 := time.Now()
			fn()
			t1 := time.Now()
			p.tr.record(k, root, int64(i), name, t0, t1)
			return t1.Sub(t0)
		}
		var cerr error
		digestT += call("digest.config", func() { digests[i], cerr = vSerial.ConfigDigest(e, "") })
		if cerr != nil {
			return cerr
		}
		var crawled []*crawler.FileConfig
		crawlT += call("crawler.crawl", func() {
			for _, entry := range entries {
				fcs, err := cr.CrawlPaths(e, entry.ConfigSearchPaths)
				if err != nil && cerr == nil {
					cerr = err
				}
				crawled = append(crawled, fcs...)
			}
		})
		if cerr != nil {
			return cerr
		}
		for _, fc := range crawled {
			l, ok := reg.ByName(fc.LensName)
			if !ok || fc.Err != nil {
				continue
			}
			content, err := raw.ReadFile(fc.Path)
			if err != nil {
				return err
			}
			d := call("lens.parse", func() { _, cerr = l.Parse(fc.Path, content) })
			if cerr != nil {
				return fmt.Errorf("lens %s: %s: %w", l.Name(), fc.Path, cerr)
			}
			lensT[l.Name()] += d
			lensN[l.Name()]++
		}
		var rep *configvalidator.Report
		serialT += call("engine.validate", func() { rep, cerr = vSerial.Validate(e) })
		p.checkReport(raw.Name(), rep, cerr)
		var prep *configvalidator.Report
		poolT += call("engine.pool", func() { prep, cerr = vPool.Validate(e) })
		p.checkReport(raw.Name(), prep, cerr)
		if rep == nil {
			return fmt.Errorf("validate %s: %v", raw.Name(), cerr)
		}
		rec := journal.Record{Entity: raw.Name(), Digest: digests[i]}
		call("journal.record", func() { rec.Report = journal.NewReportRecord(rep) })
		appends = append(appends, float64(call("journal.append", func() { cerr = j.Append(rec) }))/1e3)
		if cerr != nil {
			return cerr
		}
		var fb []byte
		encT += call("frames.encode", func() { fb, cerr = captureFrame(e) })
		if cerr != nil {
			return cerr
		}
		frameBytes += len(fb)
		p.frames = append(p.frames, fb)
		decT += call("frames.decode", func() { _, cerr = frames.Read(bytes.NewReader(fb)) })
		if cerr != nil {
			return cerr
		}
		p.tr.record(root, 0, int64(i), "probe.entity", start, time.Now())
	}
	n := float64(len(p.sample))
	us := func(d time.Duration) float64 { return float64(d) / 1e3 / n }
	p.layer["digest.us_per_entity"] = us(digestT)
	p.layer["crawler.crawl_us_per_entity"] = us(crawlT)
	p.layer["engine.validate_us_per_entity"] = us(serialT)
	p.layer["engine.eval_self_us_per_entity"] = us(serialT - crawlT)
	p.layer["engine.pool_ratio"] = float64(poolT) / float64(serialT)
	p.layer["frames.encode_us_per_entity"] = us(encT)
	p.layer["frames.decode_us_per_entity"] = us(decT)
	p.layer["frames.bytes_per_entity"] = float64(frameBytes) / n
	p.layer["journal.append_us_p50"] = percentile(appends, 0.5)
	p.layer["journal.append_us_p90"] = percentile(appends, 0.9)
	for _, name := range lensNames {
		if lensN[name] > 0 {
			p.layer["lens.parse_us."+name] = float64(lensT[name]) / 1e3 / float64(lensN[name])
		}
	}
	parses := 0
	for _, k := range lensN {
		parses += k
	}
	p.lensParses = float64(parses) / n

	// Replay: reopen the completed journal, then rebuild every report.
	if err := j.Close(); err != nil {
		return err
	}
	st, err := os.Stat(jpath)
	if err != nil {
		return err
	}
	p.layer["journal.bytes_per_record"] = float64(st.Size()) / n
	var j2 *journal.Journal
	d := p.tr.timed(0, -1, "journal.replay", func() { j2, err = journal.Open(jpath, journal.Options{}) })
	if err != nil {
		return err
	}
	defer func() { _ = j2.Close() }()
	p.layer["journal.replay_us_per_record"] = float64(d) / 1e3 / n
	var lookupT time.Duration
	for i, raw := range p.sample {
		var rebuilt *configvalidator.Report
		ok := false
		lookupT += p.tr.timed(0, int64(i), "journal.lookup", func() {
			var rec journal.Record
			if rec, ok = j2.Lookup(raw.Name(), digests[i]); ok {
				rebuilt = rec.Report.Report()
			}
		})
		p.checkReport(raw.Name(), rebuilt, nil)
	}
	p.layer["journal.lookup_rebuild_us"] = float64(lookupT) / 1e3 / n
	return nil
}

// fleet runs one cold ValidateFleet at default options over the sample and
// reads per-entity scan latency from the program's own histogram.
func (p *probes) fleet() error {
	c := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(c))
	if err != nil {
		return err
	}
	var results []configvalidator.FleetResult
	p.tr.timed(0, -1, "fleet.probe", func() {
		results = drain(v.ValidateFleet(context.Background(), feed(p.sample), configvalidator.FleetOptions{}))
	})
	for _, res := range results {
		p.check(p.ref.checkResult(res, false))
	}
	h := c.Snapshot().ScanLatency
	p.layer["fleet.scan_p50_ms"] = histQuantile(h, 0.5) * 1e3
	p.layer["fleet.scan_p90_ms"] = histQuantile(h, 0.9) * 1e3
	return nil
}

// server POSTs every sampled frame once to a server configured as cvserver
// defaults it, for workloads whose own path has no HTTP service.
func (p *probes) server() error {
	c := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(c), configvalidator.WithParallelism(0),
		configvalidator.WithParseCache(configvalidator.NewParseCache(configvalidator.DefaultParseCacheSize)))
	if err != nil {
		return err
	}
	s, err := server.New(v)
	if err != nil {
		return err
	}
	var tp atomic.Pointer[tracer]
	tp.Store(p.tr)
	ts := httptest.NewServer(spanHandler(s.Handler(), &tp, "server.handler"))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i, fb := range p.frames {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/validate/frame", bytes.NewReader(fb))
		if err != nil {
			return err
		}
		key := p.tr.key()
		req.Header.Set(spanHeader, strconv.FormatUint(key, 10))
		t0 := time.Now()
		status, body, err := post(client, req)
		p.tr.record(key, 0, int64(i), "client.request", t0, time.Now())
		p.check(err == nil && p.ref.checkBody(p.sample[i].Name(), status, body))
	}
	p.serverMetrics(s.Metrics().Snapshot(), telemetry.Snapshot{})
	return nil
}

// serverMetrics reads handler latency and shedding between two snapshots
// of a server's collector.
func (p *probes) serverMetrics(after, before telemetry.Snapshot) {
	h := histDelta(after.HTTPLatency, before.HTTPLatency)
	p.layer["server.handler_p50_ms"] = histQuantile(h, 0.5) * 1e3
	p.layer["server.handler_p90_ms"] = histQuantile(h, 0.9) * 1e3
	p.layer["server.shed"] = float64(after.Shed - before.Shed)
}

// dist runs one coordinator scan of the sample over two fresh in-process
// workers, for workloads whose own path has no coordinator.
func (p *probes) dist() error {
	cl, err := newCluster(true)
	if err != nil {
		return err
	}
	defer cl.close()
	cl.traced.Store(p.tr)
	st := newShardTimer(p.tr)
	c := configvalidator.NewCollector()
	v, err := configvalidator.New(configvalidator.WithTelemetry(c), configvalidator.WithParallelism(0))
	if err != nil {
		return err
	}
	root := p.tr.key()
	st.root.Store(root)
	start := time.Now()
	results := drain(v.ValidateFleet(context.Background(), feed(p.sample),
		configvalidator.FleetOptions{Scheduler: cl.coordinator(p.tr, st)}))
	p.tr.record(root, 0, -1, "dist.probe", start, time.Now())
	for _, res := range results {
		p.check(p.ref.checkResult(res, false))
	}
	p.distMetrics(st, len(p.sample), c.Snapshot(), telemetry.Snapshot{})
	return nil
}

func (p *probes) distMetrics(st *shardTimer, entities int, after, before telemetry.Snapshot) {
	var durs []float64
	st.mu.Lock()
	for _, d := range st.durs {
		durs = append(durs, ms(d))
	}
	st.mu.Unlock()
	p.layer["dist.shard_ms_p50"] = percentile(durs, 0.5)
	p.layer["dist.wire_bytes_per_entity"] = float64(st.wire.Load()) / float64(max(entities, 1))
	p.layer["dist.lease_reassignments"] = float64(after.LeaseReassignments - before.LeaseReassignments)
	p.layer["dist.duplicates_dropped"] = float64(after.DuplicateResults - before.DuplicateResults)
	p.layer["dist.rpc_retries"] = float64(after.WorkerRPCRetries - before.WorkerRPCRetries)
}

// histQuantile estimates the q-quantile of a latency histogram in seconds,
// interpolating linearly inside the bucket that holds it, as Prometheus'
// histogram_quantile does. The overflow bucket yields its lower bound.
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum, lower := 0.0, 0.0
	for i, n := range h.Counts {
		if n > 0 && cum+float64(n) >= rank {
			if i >= len(h.Bounds) {
				return lower
			}
			return lower + (h.Bounds[i]-lower)*(rank-cum)/float64(n)
		}
		cum += float64(n)
		if i < len(h.Bounds) {
			lower = h.Bounds[i]
		}
	}
	return lower
}

func histDelta(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Bounds: after.Bounds, Count: after.Count - before.Count,
		Sum: after.Sum - before.Sum, Counts: append([]int64(nil), after.Counts...)}
	for i := range before.Counts {
		if i < len(d.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
