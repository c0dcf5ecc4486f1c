package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	configvalidator "configvalidator"
	"configvalidator/internal/entity"
)

// counts tallies one report's rule results by status.
type counts [configvalidator.StatusDegraded + 1]int

func tally(rep *configvalidator.Report) counts {
	var c counts
	for _, r := range rep.Results {
		if r.Status >= 0 && int(r.Status) < len(c) {
			c[r.Status]++
		}
	}
	return c
}

// reference is the correctness oracle: what the serial in-process path
// (one fleet worker, intra-entity parallelism 1, no parse cache, no
// journal) reports for every input entity.
type reference struct {
	counts  map[string]counts
	summary string
	// body holds the SHA-256 of each entity's JSON report as the HTTP
	// service renders it.
	body map[string][sha256.Size]byte
}

func buildReference(ents []entity.Entity) (*reference, error) {
	v, err := configvalidator.New(configvalidator.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	ref := &reference{
		counts: make(map[string]counts, len(ents)),
		body:   make(map[string][sha256.Size]byte, len(ents)),
	}
	results := drain(v.ValidateFleet(context.Background(), feed(ents), configvalidator.FleetOptions{Workers: 1}))
	if len(results) != len(ents) {
		return nil, fmt.Errorf("reference: %d results for %d entities", len(results), len(ents))
	}
	for _, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("reference: %s: %w", res.Entity, res.Err)
		}
		if _, dup := ref.counts[res.Entity]; dup {
			return nil, fmt.Errorf("reference: duplicate entity name %q", res.Entity)
		}
		ref.counts[res.Entity] = tally(res.Report)
		var buf bytes.Buffer
		if err := configvalidator.WriteJSON(&buf, res.Report, configvalidator.OutputOptions{}); err != nil {
			return nil, err
		}
		ref.body[res.Entity] = sha256.Sum256(buf.Bytes())
	}
	ref.summary = summarize(results)
	return ref, nil
}

// checkResult reports whether one delivered fleet result matches the
// reference. A scan error, an unknown entity, different status counts, or
// (when the run must replay) a result that was re-scanned all fail.
func (r *reference) checkResult(res configvalidator.FleetResult, wantResumed bool) bool {
	if res.Err != nil || res.Report == nil || (wantResumed && !res.Resumed) {
		return false
	}
	want, ok := r.counts[res.Entity]
	return ok && tally(res.Report) == want
}

// checkScan counts the failed outcomes of one complete fleet scan: failed
// results, entities with no result, and a summary that differs from the
// reference's (counted once if every result matched on its own).
func (r *reference) checkScan(results []configvalidator.FleetResult, wantResumed bool) int {
	failed := 0
	seen := make(map[string]bool, len(results))
	for _, res := range results {
		if seen[res.Entity] || !r.checkResult(res, wantResumed) {
			failed++
		}
		seen[res.Entity] = true
	}
	failed += max(0, len(r.counts)-len(seen))
	if failed == 0 && summarize(results) != r.summary {
		failed = 1
	}
	return failed
}

// checkBody reports whether an HTTP report for entity name matches the
// reference rendering byte for byte.
func (r *reference) checkBody(name string, status int, body []byte) bool {
	want, ok := r.body[name]
	return ok && status == 200 && sha256.Sum256(body) == want
}

func summarize(results []configvalidator.FleetResult) string {
	ch := make(chan configvalidator.FleetResult, len(results))
	for _, res := range results {
		ch <- res
	}
	close(ch)
	return configvalidator.Summarize(ch).String()
}

// feed streams ents on an unbuffered channel, as a fleet producer would.
func feed(ents []entity.Entity) <-chan configvalidator.Entity {
	ch := make(chan configvalidator.Entity)
	go func() {
		defer close(ch)
		for _, e := range ents {
			ch <- e
		}
	}()
	return ch
}

func drain(results <-chan configvalidator.FleetResult) []configvalidator.FleetResult {
	var out []configvalidator.FleetResult
	for res := range results {
		out = append(out, res)
	}
	return out
}
