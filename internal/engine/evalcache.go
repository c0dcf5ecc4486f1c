package engine

import (
	"crypto/sha256"
	"sync"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
)

// The evaluation memo extends content-addressing from parsing to verdicts:
// tree and schema rules are pure functions of (rule, normalized configs),
// so when two entities' configs have the same paths and content, the rule
// outcome is provably identical and the evaluation can be skipped. Path and
// script rules read entity state (file metadata, runtime features) that the
// config signature does not capture, and composites read other rules'
// per-entity outcomes; none of those are memoized.
//
// The signature needs the SHA-256 of every crawled file, which a crawl
// computes anyway for its parse-cache keys and otherwise would not. New
// therefore enables the memo exactly when the crawler has a parse cache.

// evalMemoCap bounds the number of memoized verdicts.
const evalMemoCap = 1 << 16

// verdict is the entity-independent part of a Result: everything except
// the EntityName/ManifestEntity attribution stamped per report.
type verdict struct {
	status  Status
	message string
	detail  string
	file    string
}

// evalMemo is a bounded concurrent two-level map of rule verdicts: config
// signature → rule → verdict. The signature level is resolved once per
// manifest entry (or per script output), so the per-rule lookup on the hot
// path hashes a pointer, not a digest. The bound is a safety valve, not a
// working-set tuner — the natural population is (#rules × #distinct config
// payloads), far below the cap — so overflow clears the map instead of
// paying LRU bookkeeping on every hit.
type evalMemo struct {
	mu    sync.Mutex
	count int
	m     map[string]*sigVerdicts
}

// sigVerdicts holds every memoized verdict for one config signature.
type sigVerdicts struct {
	memo *evalMemo
	mu   sync.RWMutex
	m    map[*cvl.Rule]verdict
}

func newEvalMemo() *evalMemo {
	return &evalMemo{m: make(map[string]*sigVerdicts)}
}

// forSig resolves the verdict table for one config signature, creating it
// on first sight.
func (c *evalMemo) forSig(sig string) *sigVerdicts {
	c.mu.Lock()
	sv, ok := c.m[sig]
	if !ok {
		sv = &sigVerdicts{memo: c, m: make(map[*cvl.Rule]verdict)}
		c.m[sig] = sv
	}
	c.mu.Unlock()
	return sv
}

func (s *sigVerdicts) get(rule *cvl.Rule) (verdict, bool) {
	s.mu.RLock()
	v, ok := s.m[rule]
	s.mu.RUnlock()
	return v, ok
}

func (s *sigVerdicts) put(rule *cvl.Rule, v verdict) {
	c := s.memo
	c.mu.Lock()
	if c.count >= evalMemoCap {
		// Clear the whole memo; tables still referenced by in-flight
		// runs keep filling, which at worst overshoots the cap by one
		// fleet generation.
		c.m = make(map[string]*sigVerdicts)
		c.count = 0
	}
	c.count++
	c.mu.Unlock()
	s.mu.Lock()
	s.m[rule] = v
	s.mu.Unlock()
}

// memoizable reports whether a rule's outcome is a pure function of the
// crawled configs.
func memoizable(rule *cvl.Rule) bool {
	return rule.Type == cvl.TypeTree || rule.Type == cvl.TypeSchema
}

// configSig fingerprints a config set by each file's path and the SHA-256
// of its observed content, or its error text. The lens is a function of the
// path, and a lens a function of (path, content), so two entities with
// equal signatures present rule evaluation with indistinguishable input —
// whether or not the parse cache still holds, or ever held, their parse.
// The fingerprint is folded to a SHA-256 digest so map lookups hash 32
// bytes per rule instead of the full manifest payload. An empty set gets a
// constant marker: "this entry crawled nothing" is itself content, and the
// resulting not-applicable verdicts are the most common outcome in a
// heterogeneous fleet (most images don't carry most applications).
func configSig(obs *crawler.Observation, configs []*crawler.FileConfig) string {
	if len(configs) == 0 {
		return "\x00empty"
	}
	h := sha256.New()
	for _, fc := range configs {
		h.Write([]byte(fc.Path))
		if fc.Err != nil {
			h.Write([]byte{0, 'E'})
			h.Write([]byte(fc.Err.Error()))
		} else {
			// The crawl read this file, so Sum cannot fail.
			sum, _ := obs.Sum(fc.Path)
			h.Write([]byte{0, 'S'})
			h.Write(sum[:])
		}
		h.Write([]byte{1})
	}
	return string(h.Sum(nil))
}

// scriptSig keys a script-rule verdict by the feature output it judged:
// checkValue is a pure function of (rule, output), so entities whose
// runtime feature answered identically share one verdict.
func scriptSig(output string) string {
	sum := sha256.Sum256([]byte("script\x00" + output))
	return string(sum[:])
}
