package engine

import (
	"errors"
	"fmt"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"configvalidator/internal/configtree"
	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/lens"
	"configvalidator/internal/schema"
)

// Options tune engine execution.
type Options struct {
	// Parallelism bounds the worker pool used inside one entity
	// validation: manifest entries resolve and crawl concurrently, and
	// independent non-composite rules evaluate concurrently. 0 (the
	// default) uses runtime.GOMAXPROCS(0); 1 runs the serial path with
	// no pool at all. Reports are identical at every setting — results
	// are gathered into manifest order and composite rules still
	// evaluate last, serially — only wall-clock time changes.
	//
	// Entities validated with Parallelism > 1 must tolerate concurrent
	// reads (every built-in entity backend does: they are immutable
	// snapshots or read-only filesystem views).
	Parallelism int

	// EvalCacheSize bounds the verdict memo for tree and schema rules,
	// which are pure functions of (rule, parsed configs): when a shared
	// crawler.ParseCache makes two entities' configs the same Results,
	// the verdict is reused instead of re-evaluated (see evalcache.go).
	// 0 (the default) disables memoization — the correct setting
	// whenever no parse cache is attached; < 0 enables it with
	// DefaultEvalCacheSize.
	EvalCacheSize int
}

// Engine applies CVL rules to entities.
type Engine struct {
	crawler *crawler.Crawler
	match   *matcher
	faults  *faults.Injector
	opts    Options
	memo    *evalMemo
}

// New creates an engine. A nil crawler gets default options and the default
// lens registry.
func New(c *crawler.Crawler) *Engine {
	return NewWithOptions(c, Options{})
}

// NewWithOptions creates an engine with explicit execution options.
func NewWithOptions(c *crawler.Crawler, opts Options) *Engine {
	if c == nil {
		c = crawler.New(nil, crawler.Options{})
	}
	return &Engine{crawler: c, match: newMatcher(), opts: opts, memo: newEvalMemo(opts.EvalCacheSize)}
}

// parallelism resolves Options.Parallelism to an effective worker count.
func (e *Engine) parallelism() int {
	p := e.opts.Parallelism
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	return p
}

// SetFaults arms fault injection on rule evaluation (faults.OpEval, keyed
// "entity/rule"). A nil injector — the production default — is inert.
func (e *Engine) SetFaults(inj *faults.Injector) { e.faults = inj }

// entityRun is the per-manifest-entry working state of one validation.
type entityRun struct {
	entry   *cvl.ManifestEntry
	rules   []*cvl.Rule
	configs []*crawler.FileConfig
	results []*Result
	// verdicts is the memo table for this run's config signature; nil
	// when the memo is disabled.
	verdicts *sigVerdicts
}

// RuleSource resolves a rule-file path to its effective rules (inheritance
// applied). Implementations may cache: the engine treats returned rules as
// immutable.
type RuleSource interface {
	Resolve(path string) ([]*cvl.Rule, error)
}

// readerSource adapts a FileReader into a RuleSource without caching.
type readerSource struct {
	read cvl.FileReader
}

func (s readerSource) Resolve(path string) ([]*cvl.Rule, error) {
	return cvl.ResolveRules(s.read, path)
}

// CachedSource memoizes rule-file resolution — the production
// configuration for fleet scans, where the same rule library applies to
// every image and re-parsing it per entity would dominate scan time. Safe
// for concurrent use.
type CachedSource struct {
	read   cvl.FileReader
	mu     sync.Mutex
	byFile map[string][]*cvl.Rule
}

var _ RuleSource = (*CachedSource)(nil)

// NewCachedSource wraps a FileReader with memoization.
func NewCachedSource(read cvl.FileReader) *CachedSource {
	return &CachedSource{read: read, byFile: make(map[string][]*cvl.Rule)}
}

// Resolve implements RuleSource. The returned slice is a fresh copy on
// every call: callers routinely append to or re-slice rule lists (tag and
// entity-type filtering), and handing out the cached backing array would
// let one caller's append clobber another's view of the shared library.
// The *cvl.Rule pointees stay shared and must be treated as immutable.
func (s *CachedSource) Resolve(path string) ([]*cvl.Rule, error) {
	s.mu.Lock()
	cached, ok := s.byFile[path]
	s.mu.Unlock()
	if !ok {
		rules, err := cvl.ResolveRules(s.read, path)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		if incumbent, raced := s.byFile[path]; raced {
			// Lost a race with a concurrent resolve; keep the incumbent
			// so every caller copies from one canonical slice.
			cached = incumbent
		} else {
			s.byFile[path] = rules
			cached = rules
		}
		s.mu.Unlock()
	}
	out := make([]*cvl.Rule, len(cached))
	copy(out, cached)
	return out, nil
}

// Validate runs every enabled manifest entry against the entity and returns
// the report. Rule files are resolved through read (with inheritance).
// Composite rules are evaluated last, over the per-entity outcomes.
func (e *Engine) Validate(ent entity.Entity, manifest *cvl.Manifest, read cvl.FileReader) (*Report, error) {
	return e.ValidateWithSource(ent, manifest, readerSource{read: read})
}

// ValidateWithSource is Validate with a caller-controlled rule source
// (typically a CachedSource shared across a fleet scan).
//
// With Options.Parallelism > 1 the manifest entries are prepared (rule
// resolution + crawl) and their non-composite rules evaluated on a bounded
// worker pool; every result lands in a slot fixed by its manifest position,
// so the assembled report is identical to a serial run regardless of
// scheduling. Composite rules always run last, serially, in manifest order.
func (e *Engine) ValidateWithSource(ent entity.Entity, manifest *cvl.Manifest, src RuleSource) (*Report, error) {
	entries := manifest.EnabledEntries()
	if par := e.parallelism(); par > 1 && len(entries) > 0 {
		return e.validateParallel(ent, entries, src, par)
	}

	report := &Report{EntityName: ent.Name(), EntityType: ent.Type().String()}
	runs := make(map[string]*entityRun)
	var order []string
	type deferredComposite struct {
		entry *cvl.ManifestEntry
		rule  *cvl.Rule
	}
	var composites []deferredComposite

	for _, entry := range entries {
		run, err := e.prepareRun(ent, entry, src)
		if err != nil {
			return nil, fmt.Errorf("engine: entity %s: %w", entry.Name, err)
		}
		runs[entry.Name] = run
		order = append(order, entry.Name)

		for _, rule := range run.rules {
			if rule.Type == cvl.TypeComposite {
				composites = append(composites, deferredComposite{entry: entry, rule: rule})
				continue
			}
			res := e.safeEvalRule(ent, entry, rule, run.configs, run.verdicts)
			run.results = append(run.results, res)
		}
	}

	resolver := &runResolver{runs: runs}
	for _, dc := range composites {
		res := e.safeEvalComposite(ent, dc.entry, dc.rule, resolver)
		runs[dc.entry.Name].results = append(runs[dc.entry.Name].results, res)
	}

	for _, name := range order {
		report.Results = append(report.Results, runs[name].results...)
	}
	return report, nil
}

// prepareRun resolves, filters, and crawls one manifest entry, seeding the
// run's results with degraded findings for configuration files that could
// not be read or parsed: the scan continues, but those files' checks
// cannot be trusted on this pass.
func (e *Engine) prepareRun(ent entity.Entity, entry *cvl.ManifestEntry, src RuleSource) (*entityRun, error) {
	rules, err := src.Resolve(entry.CVLFile)
	if err != nil {
		return nil, err
	}
	rules = cvl.FilterByTags(rules, entry.Tags)
	rules = cvl.FilterByEntityType(rules, ent.Type().String())
	configs, err := e.crawler.CrawlPaths(ent, entry.ConfigSearchPaths)
	if err != nil {
		return nil, err
	}
	run := &entityRun{entry: entry, rules: rules, configs: configs}
	if e.memo != nil {
		run.verdicts = e.memo.forSig(configSig(configs))
	}
	for _, fc := range configs {
		if fc.Err != nil {
			run.results = append(run.results, &Result{
				EntityName:     ent.Name(),
				ManifestEntity: entry.Name,
				Status:         StatusDegraded,
				Message:        fc.Err.Error(),
				File:           fc.Path,
			})
		}
	}
	return run, nil
}

// validateParallel is the Parallelism > 1 execution of ValidateWithSource.
func (e *Engine) validateParallel(ent entity.Entity, entries []*cvl.ManifestEntry, src RuleSource, par int) (*Report, error) {
	report := &Report{EntityName: ent.Name(), EntityType: ent.Type().String()}
	runs := make([]*entityRun, len(entries))
	errs := make([]error, len(entries))

	// Phase 1: resolve rules and crawl configuration for every entry,
	// with the serial path's error semantics. The first entry is prepared
	// alone, so an entity that cannot be walked fails after the one walk
	// the serial path makes, not once per concurrently started entry —
	// that would burn retry budgets and hammer a flaky backend. The rest
	// prepare concurrently, each worker writing only its own slot; once
	// an entry fails, no entry after it starts, while every entry before
	// it still runs, so the earliest failing entry is the one reported.
	runs[0], errs[0] = e.prepareRun(ent, entries[0], src)
	if errs[0] == nil {
		var mu sync.Mutex
		firstErr := len(entries)
		if pv := runParallel(par, len(entries)-1, func(i int) {
			i++
			mu.Lock()
			stop := i > firstErr
			mu.Unlock()
			if stop {
				return
			}
			runs[i], errs[i] = e.prepareRun(ent, entries[i], src)
			if errs[i] != nil {
				mu.Lock()
				firstErr = min(firstErr, i)
				mu.Unlock()
			}
		}); pv != nil {
			panic(pv)
		}
	}
	for i, err := range errs {
		// Earliest-entry error wins, matching the serial abort order.
		if err != nil {
			return nil, fmt.Errorf("engine: entity %s: %w", entries[i].Name, err)
		}
	}

	// Phase 2: evaluate independent non-composite rules concurrently.
	// Each run's result slice is pre-sized so every rule writes the slot
	// its manifest position dictates — the gather is order-free.
	type evalTask struct {
		run  *entityRun
		slot int
		rule *cvl.Rule
	}
	type compositeRef struct {
		run  *entityRun
		rule *cvl.Rule
	}
	var tasks []evalTask
	var composites []compositeRef
	for _, run := range runs {
		nonComposite := 0
		for _, rule := range run.rules {
			if rule.Type != cvl.TypeComposite {
				nonComposite++
			}
		}
		slot := len(run.results)
		run.results = append(run.results, make([]*Result, nonComposite)...)
		for _, rule := range run.rules {
			if rule.Type == cvl.TypeComposite {
				composites = append(composites, compositeRef{run: run, rule: rule})
				continue
			}
			tasks = append(tasks, evalTask{run: run, slot: slot, rule: rule})
			slot++
		}
	}
	if pv := runParallel(par, len(tasks), func(i int) {
		t := tasks[i]
		t.run.results[t.slot] = e.safeEvalRule(ent, t.run.entry, t.rule, t.run.configs, t.run.verdicts)
	}); pv != nil {
		panic(pv)
	}

	// Phase 3: composites last, serially, in manifest order — matching
	// the serial path, and letting a later composite observe an earlier
	// composite's outcome exactly as it would serially.
	byName := make(map[string]*entityRun, len(runs))
	for _, run := range runs {
		byName[run.entry.Name] = run
	}
	resolver := &runResolver{runs: byName}
	for _, c := range composites {
		c.run.results = append(c.run.results, e.safeEvalComposite(ent, c.run.entry, c.rule, resolver))
	}

	for _, run := range runs {
		report.Results = append(report.Results, run.results...)
	}
	return report, nil
}

// runParallel executes task(0..n-1) on min(par, n) workers pulling indices
// from a shared counter. A panicking task is recovered and remembered; the
// pool drains fully and the panic value of the lowest task index is
// returned for the caller to re-panic, so panic propagation is
// deterministic and never leaks a goroutine mid-flight.
func runParallel(par, n int, task func(i int)) (panicVal any) {
	if n == 0 {
		return nil
	}
	if par > n {
		par = n
	}
	var (
		next     int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicIdx = -1
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if panicIdx < 0 || i < panicIdx {
								panicIdx, panicVal = i, r
							}
							mu.Unlock()
						}
					}()
					task(i)
				}()
			}
		}()
	}
	wg.Wait()
	return panicVal
}

// ValidateRules applies a flat rule list to an entity using the given
// search paths — the single-entity path used by examples, tests, and the
// benchmark harness (no manifest, no composites).
func (e *Engine) ValidateRules(ent entity.Entity, rules []*cvl.Rule, searchPaths []string) (*Report, error) {
	entry := &cvl.ManifestEntry{Name: "default", Enabled: true, ConfigSearchPaths: searchPaths}
	configs, err := e.crawler.CrawlPaths(ent, searchPaths)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	report := &Report{EntityName: ent.Name(), EntityType: ent.Type().String()}
	for _, fc := range configs {
		if fc.Err != nil {
			report.Results = append(report.Results, &Result{
				EntityName:     ent.Name(),
				ManifestEntity: entry.Name,
				Status:         StatusDegraded,
				Message:        fc.Err.Error(),
				File:           fc.Path,
			})
		}
	}
	var verdicts *sigVerdicts
	if e.memo != nil {
		verdicts = e.memo.forSig(configSig(configs))
	}
	for _, rule := range cvl.FilterByEntityType(rules, ent.Type().String()) {
		if rule.Type == cvl.TypeComposite {
			report.Results = append(report.Results, e.errorResult(ent, entry, rule, errors.New("composite rules require a manifest context")))
			continue
		}
		report.Results = append(report.Results, e.safeEvalRule(ent, entry, rule, configs, verdicts))
	}
	return report, nil
}

// safeEvalRule evaluates one rule with per-rule fault injection and panic
// isolation: a panicking matcher, lens structure, or injected eval fault
// degrades that single rule's result instead of aborting the entity scan.
//
// verdicts is the memo table for the run's config signature (nil disables
// verdict memoization for this call). Fault injection is checked before the
// memo lookup so a chaos schedule consumes injections identically on warm
// and cold caches, and a degraded or panicked outcome is never stored.
func (e *Engine) safeEvalRule(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig, verdicts *sigVerdicts) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res = e.degradedResult(ent, entry, rule, fmt.Errorf("rule evaluation panicked: %v", r))
		}
	}()
	if e.faults != nil {
		if err := e.faults.Check(faults.OpEval, entry.Name+"/"+rule.Name); err != nil {
			return e.degradedResult(ent, entry, rule, err)
		}
	}
	if verdicts != nil && memoizable(rule) {
		if v, ok := verdicts.get(rule); ok {
			return &Result{
				EntityName:     ent.Name(),
				ManifestEntity: entry.Name,
				Rule:           rule,
				Status:         v.status,
				Message:        v.message,
				Detail:         v.detail,
				File:           v.file,
			}
		}
		res := e.evalRule(ent, entry, rule, configs)
		verdicts.put(rule, verdict{status: res.Status, message: res.Message, detail: res.Detail, file: res.File})
		return res
	}
	return e.evalRule(ent, entry, rule, configs)
}

// safeEvalComposite is safeEvalRule for composite rules.
func (e *Engine) safeEvalComposite(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, resolver cvl.CompositeResolver) (res *Result) {
	defer func() {
		if r := recover(); r != nil {
			res = e.degradedResult(ent, entry, rule, fmt.Errorf("composite evaluation panicked: %v", r))
		}
	}()
	if e.faults != nil {
		if err := e.faults.Check(faults.OpEval, entry.Name+"/"+rule.Name); err != nil {
			return e.degradedResult(ent, entry, rule, err)
		}
	}
	return e.evalComposite(ent, entry, rule, resolver)
}

func (e *Engine) evalRule(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	switch rule.Type {
	case cvl.TypeTree:
		return e.evalTree(ent, entry, rule, configs)
	case cvl.TypeSchema:
		return e.evalSchema(ent, entry, rule, configs)
	case cvl.TypePath:
		return e.evalPath(ent, entry, rule, configs)
	case cvl.TypeScript:
		return e.evalScript(ent, entry, rule)
	default:
		return e.errorResult(ent, entry, rule, fmt.Errorf("unsupported rule type %v", rule.Type))
	}
}

// --- tree rules ---

func (e *Engine) evalTree(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	candidates := selectTreeConfigs(configs, rule.FileContext)
	if len(candidates) == 0 {
		return e.notApplicable(ent, entry, rule, "no matching configuration files found")
	}

	// require_other_configs: every listed key must exist somewhere in the
	// candidate trees, else the rule does not apply (e.g. ssl_protocols
	// rules only bind to servers that actually configure SSL).
	for _, required := range rule.RequireOtherConfigs {
		if !anyTreeHasKey(candidates, required) {
			return e.notApplicable(ent, entry, rule,
				fmt.Sprintf("required config %q not present", required))
		}
	}

	paths := rule.ConfigPath
	if len(paths) == 0 {
		paths = []string{""}
	}
	queries := make([]string, len(paths))
	for i, p := range paths {
		queries[i] = joinTreePath(p, rule.Name)
	}
	type hit struct {
		node *configtree.Node
		file string
	}
	var hits []hit
	for _, fc := range candidates {
		for _, q := range queries {
			for _, n := range fc.Result.FindTree(q) {
				hits = append(hits, hit{node: n, file: fc.Path})
			}
		}
	}
	if len(hits) == 0 {
		if rule.AbsentPass {
			return e.pass(ent, entry, rule, orDefault(rule.NotPresentDescription, rule.Name+" is not present"), "")
		}
		return e.fail(ent, entry, rule,
			orDefault(rule.NotPresentDescription, rule.Name+" is not present"),
			"key not found in "+candidateFiles(candidates), "")
	}

	occurrence := rule.Occurrence
	if occurrence == "" {
		occurrence = "all"
	}
	passCount := 0
	var firstFailDetail, firstFailFile string
	for i, h := range hits {
		if occurrence == "first" && i > 0 {
			break
		}
		ok, detail, err := e.checkNodeValue(rule, h.node.Value)
		if err != nil {
			return e.errorResult(ent, entry, rule, err)
		}
		if ok {
			passCount++
		} else if firstFailDetail == "" {
			firstFailDetail = detail
			firstFailFile = h.file
		}
	}
	considered := len(hits)
	if occurrence == "first" {
		considered = 1
	}
	passed := false
	switch occurrence {
	case "any":
		passed = passCount > 0
	default: // "all", "first"
		passed = passCount == considered
	}
	if passed {
		return e.pass(ent, entry, rule,
			orDefault(rule.MatchedDescription, rule.Name+" is configured correctly"),
			hits[0].file)
	}
	return e.fail(ent, entry, rule,
		orDefault(rule.NotMatchedDescription, rule.Name+" has a non-preferred value"),
		firstFailDetail, firstFailFile)
}

// checkNodeValue applies the rule's matchers to one node value. When the
// rule declares a value_separator, the value is split and every element
// must pass individually (list-valued keys such as sshd's Ciphers are then
// checked element-wise rather than as one string).
func (e *Engine) checkNodeValue(rule *cvl.Rule, value string) (bool, string, error) {
	if rule.ValueSeparator == "" {
		return e.match.checkValue(rule, value)
	}
	parts := strings.Split(value, rule.ValueSeparator)
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ok, detail, err := e.match.checkValue(rule, part)
		if err != nil || !ok {
			return ok, detail, err
		}
	}
	return true, "all elements match", nil
}

func selectTreeConfigs(configs []*crawler.FileConfig, fileContext []string) []*crawler.FileConfig {
	var out []*crawler.FileConfig
	for _, fc := range configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindTree {
			continue
		}
		if matchesFileContext(fc.Path, fileContext) {
			out = append(out, fc)
		}
	}
	return out
}

// matchesFileContext reports whether the file path matches any context
// pattern: a substring of the path or a glob against the base name. An
// empty context matches everything.
func matchesFileContext(filePath string, contexts []string) bool {
	if len(contexts) == 0 {
		return true
	}
	base := path.Base(filePath)
	for _, ctx := range contexts {
		if strings.Contains(filePath, ctx) {
			return true
		}
		if ok, err := path.Match(ctx, base); err == nil && ok {
			return true
		}
	}
	return false
}

func anyTreeHasKey(configs []*crawler.FileConfig, key string) bool {
	query := "**/" + key
	for _, fc := range configs {
		if len(fc.Result.FindTree(query)) > 0 {
			return true
		}
		if _, ok := fc.Result.Tree.Child(key); ok {
			return true
		}
	}
	return false
}

func joinTreePath(configPath, name string) string {
	configPath = strings.Trim(configPath, "/")
	if configPath == "" {
		return name
	}
	return configPath + "/" + name
}

func candidateFiles(configs []*crawler.FileConfig) string {
	names := make([]string, len(configs))
	for i, fc := range configs {
		names[i] = fc.Path
	}
	return strings.Join(names, ", ")
}

// --- schema rules ---

func (e *Engine) evalSchema(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	var tables []*schema.Table
	for _, fc := range configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindSchema {
			continue
		}
		tables = append(tables, fc.Result.Table)
	}
	if len(tables) == 0 {
		return e.notApplicable(ent, entry, rule, "no schema-pattern configuration files found")
	}
	query := schema.Query{
		Columns:     rule.QueryColumns,
		Constraints: rule.QueryConstraints,
		Args:        rule.QueryConstraintsValue,
	}
	totalRows := 0
	var values []string
	var sourceFile string
	for _, t := range tables {
		out, err := t.Select(query)
		if err != nil {
			// A table without the constrained columns simply doesn't
			// apply (an fstab query against /etc/passwd).
			if strings.Contains(err.Error(), "no column") {
				continue
			}
			return e.errorResult(ent, entry, rule, err)
		}
		if sourceFile == "" && out.Len() > 0 {
			sourceFile = t.File
		}
		totalRows += out.Len()
		for _, row := range out.Rows {
			values = append(values, strings.Join(row, " "))
		}
	}
	if rule.ExpectRows != "" {
		ok, err := expectRowsSatisfied(rule.ExpectRows, totalRows)
		if err != nil {
			return e.errorResult(ent, entry, rule, err)
		}
		if !ok {
			return e.fail(ent, entry, rule,
				orDefault(rule.NotMatchedDescription, rule.Name+" row-count expectation failed"),
				fmt.Sprintf("query returned %d rows, expected %s", totalRows, rule.ExpectRows), sourceFile)
		}
		if len(rule.PreferredValue) == 0 && len(rule.NonPreferredValue) == 0 {
			return e.pass(ent, entry, rule,
				orDefault(rule.MatchedDescription, rule.Name+" row-count expectation met"), sourceFile)
		}
	}
	// Value matching over result rows; an empty result contributes the
	// single empty-string candidate, which is how Listing 3 detects
	// "/tmp not on a separate partition" with non_preferred_value [""].
	if len(values) == 0 {
		values = []string{""}
	}
	for _, v := range values {
		ok, detail, err := e.match.checkValue(rule, v)
		if err != nil {
			return e.errorResult(ent, entry, rule, err)
		}
		if !ok {
			return e.fail(ent, entry, rule,
				orDefault(rule.NotMatchedDescription, rule.Name+" failed"),
				detail, sourceFile)
		}
	}
	return e.pass(ent, entry, rule, orDefault(rule.MatchedDescription, rule.Name+" passed"), sourceFile)
}

func expectRowsSatisfied(spec string, rows int) (bool, error) {
	switch {
	case strings.HasPrefix(spec, ">="):
		n, err := strconv.Atoi(spec[2:])
		return rows >= n, err
	case strings.HasPrefix(spec, "<="):
		n, err := strconv.Atoi(spec[2:])
		return rows <= n, err
	default:
		n, err := strconv.Atoi(spec)
		return rows == n, err
	}
}

// --- path rules ---

func (e *Engine) evalPath(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, configs []*crawler.FileConfig) *Result {
	fi, err := ent.Stat(rule.Name)
	if err != nil {
		if !errors.Is(err, entity.ErrNotExist) {
			return e.errorResult(ent, entry, rule, err)
		}
		if rule.Exists != nil && !*rule.Exists {
			return e.pass(ent, entry, rule,
				orDefault(rule.MatchedDescription, rule.Name+" is absent as required"), rule.Name)
		}
		// When the manifest entry searched for configuration and found
		// none, the application is not present on this entity and the
		// path rule does not apply (an image without Apache shouldn't
		// fail Apache's file-permission checks).
		if len(configs) == 0 && len(entry.ConfigSearchPaths) > 0 {
			return e.notApplicable(ent, entry, rule, "target application not present on this entity")
		}
		return e.fail(ent, entry, rule,
			orDefault(rule.NotPresentDescription, rule.Name+" does not exist"),
			"path not found", rule.Name)
	}
	if rule.Exists != nil && !*rule.Exists {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" must not exist"),
			"path exists", rule.Name)
	}
	if rule.Ownership != "" && fi.Ownership() != rule.Ownership {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" has wrong ownership"),
			fmt.Sprintf("ownership %s, want %s", fi.Ownership(), rule.Ownership), rule.Name)
	}
	if rule.Permission >= 0 && fi.Perm() != rule.Permission {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" has wrong permissions"),
			fmt.Sprintf("mode %04o, want %04o", fi.Perm(), rule.Permission), rule.Name)
	}
	if rule.MaxPermission >= 0 && fi.Perm()&^rule.MaxPermission != 0 {
		return e.fail(ent, entry, rule,
			orDefault(rule.NotMatchedDescription, rule.Name+" permissions too open"),
			fmt.Sprintf("mode %04o exceeds maximum %04o", fi.Perm(), rule.MaxPermission), rule.Name)
	}
	return e.pass(ent, entry, rule,
		orDefault(rule.MatchedDescription, rule.Name+" metadata is correct"), rule.Name)
}

// --- script rules ---

func (e *Engine) evalScript(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule) *Result {
	output, err := ent.RunFeature(rule.ScriptFeature)
	if err != nil {
		if errors.Is(err, entity.ErrNoFeature) {
			return e.notApplicable(ent, entry, rule,
				fmt.Sprintf("runtime feature %q not available on this entity", rule.ScriptFeature))
		}
		return e.errorResult(ent, entry, rule, err)
	}
	// The verdict on a feature output is entity-independent — memoize it
	// so fleets whose entities answer a feature identically judge that
	// answer once.
	if e.memo != nil {
		sv := e.memo.forSig(scriptSig(output))
		if v, ok := sv.get(rule); ok {
			return &Result{
				EntityName:     ent.Name(),
				ManifestEntity: entry.Name,
				Rule:           rule,
				Status:         v.status,
				Message:        v.message,
				Detail:         v.detail,
				File:           v.file,
			}
		}
		res := e.evalScriptOutput(ent, entry, rule, output)
		sv.put(rule, verdict{status: res.Status, message: res.Message, detail: res.Detail, file: res.File})
		return res
	}
	return e.evalScriptOutput(ent, entry, rule, output)
}

// evalScriptOutput judges one feature output against the rule's matchers.
func (e *Engine) evalScriptOutput(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, output string) *Result {
	ok, detail, err := e.match.checkValue(rule, output)
	if err != nil {
		return e.errorResult(ent, entry, rule, err)
	}
	if ok {
		return e.pass(ent, entry, rule,
			orDefault(rule.MatchedDescription, rule.Name+" runtime state is correct"), "")
	}
	return e.fail(ent, entry, rule,
		orDefault(rule.NotMatchedDescription, rule.Name+" runtime state check failed"), detail, "")
}

// --- composite rules ---

func (e *Engine) evalComposite(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, resolver cvl.CompositeResolver) *Result {
	ok, err := rule.CompositeExpr.Eval(resolver)
	if err != nil {
		return e.errorResult(ent, entry, rule, err)
	}
	if ok {
		return e.pass(ent, entry, rule,
			orDefault(rule.MatchedDescription, rule.Name+" holds across entities"), "")
	}
	return e.fail(ent, entry, rule,
		orDefault(rule.NotMatchedDescription, rule.Name+" does not hold"),
		"composite expression evaluated false", "")
}

// runResolver resolves composite references against the per-entity runs.
type runResolver struct {
	runs map[string]*entityRun
}

var _ cvl.CompositeResolver = (*runResolver)(nil)

// RuleResult implements cvl.CompositeResolver: rule names match the CVL
// rule name within the referenced manifest entity. Dotted and slashed key
// spellings are equivalent (net.ipv4.ip_forward ~ net/ipv4/ip_forward), so
// composite references can use the natural sysctl notation.
func (r *runResolver) RuleResult(entityName, ruleName string) (bool, bool) {
	run, ok := r.runs[entityName]
	if !ok {
		return false, false
	}
	want := strings.ReplaceAll(ruleName, "/", ".")
	for _, res := range run.results {
		if res != nil && res.Rule != nil && strings.ReplaceAll(res.Rule.Name, "/", ".") == want {
			return res.Status == StatusPass, true
		}
	}
	return false, false
}

// ConfigValue implements cvl.CompositeResolver: it searches the entity's
// normalized trees for the key (optionally under a section), trying the
// natural spelling and the dotted-path expansion.
func (r *runResolver) ConfigValue(entityName, key, section string) (string, bool) {
	run, ok := r.runs[entityName]
	if !ok {
		return "", false
	}
	var queries []string
	slashKey := strings.ReplaceAll(key, ".", "/")
	if section != "" {
		queries = append(queries, section+"/"+key, section+"/"+slashKey, "**/"+section+"/"+key)
	} else {
		queries = append(queries, key, slashKey, "**/"+key)
	}
	for _, fc := range run.configs {
		if fc.Err != nil || fc.Result == nil || fc.Result.Kind != lens.KindTree {
			continue
		}
		for _, q := range queries {
			if nodes := fc.Result.FindTree(q); len(nodes) > 0 {
				return nodes[0].Value, true
			}
		}
	}
	return "", false
}

// --- result helpers ---

func (e *Engine) pass(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, msg, file string) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusPass,
		Message:        msg,
		File:           file,
	}
}

func (e *Engine) fail(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, msg, detail, file string) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusFail,
		Message:        msg,
		Detail:         detail,
		File:           file,
	}
}

func (e *Engine) notApplicable(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, detail string) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusNotApplicable,
		Message:        rule.Name + " not applicable",
		Detail:         detail,
	}
}

func (e *Engine) errorResult(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, err error) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusError,
		Message:        err.Error(),
	}
}

func (e *Engine) degradedResult(ent entity.Entity, entry *cvl.ManifestEntry, rule *cvl.Rule, err error) *Result {
	return &Result{
		EntityName:     ent.Name(),
		ManifestEntity: entry.Name,
		Rule:           rule,
		Status:         StatusDegraded,
		Message:        err.Error(),
	}
}

func orDefault(s, fallback string) string {
	if s != "" {
		return s
	}
	return fallback
}
