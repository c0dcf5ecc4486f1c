package engine

import (
	"errors"
	"fmt"
	"path"
	"strconv"
	"strings"
	"sync"

	"configvalidator/internal/configtree"
	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
	"configvalidator/internal/faults"
	"configvalidator/internal/lens"
	"configvalidator/internal/schema"
)

// Engine applies CVL rules to entities.
type Engine struct {
	crawler *crawler.Crawler
	match   *matcher
	faults  *faults.Injector
	memo    *evalMemo
}

// New creates an engine. A nil crawler gets default options and the default
// lens registry. When the crawler shares a parse cache (crawler.Options.Cache)
// the engine also memoizes tree, schema and script verdicts (see
// evalcache.go); without one the crawl hashes no file, so the memo stays
// off.
func New(c *crawler.Crawler) *Engine {
	if c == nil {
		c = crawler.New(nil, crawler.Options{})
	}
	e := &Engine{crawler: c, match: newMatcher()}
	if c.Cache() != nil {
		e.memo = newEvalMemo()
	}
	return e
}

// SetFaults arms fault injection on rule evaluation (faults.OpEval, keyed
// "entity/rule"). A nil injector — the production default — is inert.
func (e *Engine) SetFaults(inj *faults.Injector) { e.faults = inj }

// entityRun is the per-manifest-entry working state of one validation.
type entityRun struct {
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
	return e.ValidateWithSource(crawler.Observe(ent, nil), manifest, readerSource{read: read})
}

// ValidateWithSource is Validate over an observation of the entity, with a
// caller-controlled rule source (typically a CachedSource shared across a
// fleet scan). Every entry crawls the one observation, so the report judges
// exactly the files the caller observed (and, for a journaled scan,
// digested). Entries run in manifest order, so the report order is a
// function of the manifest alone; the first entry that cannot be prepared
// aborts the validation.
func (e *Engine) ValidateWithSource(obs *crawler.Observation, manifest *cvl.Manifest, src RuleSource) (*Report, error) {
	ent := obs.Entity()
	report := &Report{EntityName: ent.Name(), EntityType: ent.Type().String()}
	runs := make(map[string]*entityRun)
	var order []string
	type deferredComposite struct {
		entry *cvl.ManifestEntry
		rule  *cvl.Rule
	}
	var composites []deferredComposite

	for _, entry := range manifest.EnabledEntries() {
		rules, err := src.Resolve(entry.CVLFile)
		var run *entityRun
		if err == nil {
			run, err = e.prepareRun(obs, entry, cvl.FilterByTags(rules, entry.Tags))
		}
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

// prepareRun filters rules to the entity's type and crawls one manifest
// entry, seeding the run's results with degraded findings for configuration
// files that could not be read or parsed: the scan continues, but those
// files' checks cannot be trusted on this pass.
func (e *Engine) prepareRun(obs *crawler.Observation, entry *cvl.ManifestEntry, rules []*cvl.Rule) (*entityRun, error) {
	configs, err := e.crawler.Crawl(obs, entry.ConfigSearchPaths)
	if err != nil {
		return nil, err
	}
	ent := obs.Entity()
	run := &entityRun{rules: cvl.FilterByEntityType(rules, ent.Type().String()), configs: configs}
	if e.memo != nil {
		run.verdicts = e.memo.forSig(configSig(obs, configs))
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

// ValidateRules applies a flat rule list to an entity using the given
// search paths — the single-entity path used by examples, tests, and the
// benchmark harness (no manifest, no composites).
func (e *Engine) ValidateRules(ent entity.Entity, rules []*cvl.Rule, searchPaths []string) (*Report, error) {
	entry := &cvl.ManifestEntry{Name: "default", Enabled: true, ConfigSearchPaths: searchPaths}
	run, err := e.prepareRun(crawler.Observe(ent, searchPaths), entry, rules)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	for _, rule := range run.rules {
		if rule.Type == cvl.TypeComposite {
			run.results = append(run.results, e.errorResult(ent, entry, rule, errors.New("composite rules require a manifest context")))
			continue
		}
		run.results = append(run.results, e.safeEvalRule(ent, entry, rule, run.configs, run.verdicts))
	}
	return &Report{EntityName: ent.Name(), EntityType: ent.Type().String(), Results: run.results}, nil
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
		if res.Rule != nil && strings.ReplaceAll(res.Rule.Name, "/", ".") == want {
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
