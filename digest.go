package configvalidator

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"

	"configvalidator/internal/crawler"
	"configvalidator/internal/cvl"
	"configvalidator/internal/entity"
)

// ConfigDigest computes the SHA-256 identity of everything that could
// change a validation verdict for this entity: the rule files of the
// selected manifest entries (so a rule-library edit invalidates journaled
// results), the metadata and content of every file under the entries'
// config search paths, the installed-package database, and the names of
// the entity's runtime features. Two entities with equal digests validate
// to byte-identical reports, which is what lets a resumed or re-run fleet
// scan replay a journaled result instead of re-scanning (see
// FleetOptions.Journal). A journaled fleet scan computes this digest from
// the same observation of the entity's files that it then validates, so a
// journaled digest always names the bytes its report judged.
//
// Known digest blind spots, accepted for cheapness: runtime feature
// *outputs* are not executed (only the feature list participates), and
// rule-file inheritance chains deeper than one parent hash only the first
// two files. Both change rarely relative to config files; when they do, a
// Compact()ed journal or a new journal path forces a full re-scan.
//
// target selects one manifest entity as in ValidateTarget; empty digests
// the full manifest. Panics from entity implementations are recovered into
// errors. Any error means "no digest": the caller must scan.
func (v *Validator) ConfigDigest(e Entity, target string) (dig string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("configvalidator: digest %s: panic: %v", e.Name(), r)
		}
	}()
	entries, err := v.targetEntries(target)
	if err != nil {
		return "", err
	}
	roots := searchPathUnion(entries)
	return v.digest(crawler.Observe(e, roots), entries, roots)
}

// digest hashes an observation of the entity for the manifest entries
// whose sorted, distinct search paths are roots (see ConfigDigest). It
// does not recover panics: a panicking Walk fails the scan it is part of.
func (v *Validator) digest(obs *crawler.Observation, entries []*cvl.ManifestEntry, roots []string) (string, error) {
	e := obs.Entity()
	h := sha256.New()
	io.WriteString(h, "cvdigest/1\x00")

	// Rule-library fingerprint: the verdict depends on the rules as much as
	// on the config, so a rule edit must change the digest.
	for _, entry := range entries {
		io.WriteString(h, "entry\x00"+entry.Name+"\x00")
		for _, file := range []string{entry.CVLFile, entry.ParentCVLFile} {
			if file == "" {
				continue
			}
			fp, ferr := v.ruleFileFingerprint(file)
			if ferr != nil {
				return "", fmt.Errorf("configvalidator: digest %s: rule file %s: %w", e.Name(), file, ferr)
			}
			io.WriteString(h, file+"\x00"+fp+"\x00")
		}
	}

	// Config files: metadata and content of everything under the union of
	// the entries' search paths, per root in walk order, so a file under
	// two overlapping roots counts twice. Roots absent from the entity
	// contribute nothing (their absence is itself part of the digest via
	// omission of their files); any other walk or read failure aborts the
	// digest — a half-observed entity must not replay.
	for _, root := range roots {
		io.WriteString(h, "root\x00"+root+"\x00")
		files, werr := obs.Walk(root)
		if werr != nil && !errors.Is(werr, entity.ErrNotExist) {
			return "", fmt.Errorf("configvalidator: digest %s: %w", e.Name(), werr)
		}
		for _, fi := range files {
			fmt.Fprintf(h, "f\x00%s\x00%d\x00%o\x00%d\x00%d\x00%d\x00",
				fi.Path, fi.Size, uint32(fi.Mode), fi.UID, fi.GID, fi.ModTime.UnixNano())
			if fi.IsDir() {
				continue
			}
			sum, rerr := obs.Sum(fi.Path)
			if rerr != nil {
				return "", fmt.Errorf("configvalidator: digest %s: %w", e.Name(), rerr)
			}
			h.Write(sum[:])
		}
	}

	// System state: the installed-package database (sorted by DB.All) and
	// the sorted runtime-feature names.
	if db, perr := e.Packages(); perr == nil && db != nil {
		for _, p := range db.All() {
			io.WriteString(h, "pkg\x00"+p.Name+"\x00"+p.Version+"\x00"+p.Architecture+"\x00"+p.Status+"\x00")
		}
	} else {
		io.WriteString(h, "pkg-unavailable\x00")
	}
	for _, f := range e.Features() {
		io.WriteString(h, "feat\x00"+f+"\x00")
	}

	return hex.EncodeToString(h.Sum(nil)), nil
}

// targetEntries returns the manifest entries a scan of target covers: the
// enabled entries for an empty target, else the named entry.
func (v *Validator) targetEntries(target string) ([]*cvl.ManifestEntry, error) {
	if target == "" {
		return v.manifest.EnabledEntries(), nil
	}
	entry, ok := v.manifest.Entry(target)
	if !ok {
		return nil, fmt.Errorf("configvalidator: %w: %q", ErrUnknownTarget, target)
	}
	return []*cvl.ManifestEntry{entry}, nil
}

// ruleFileFingerprint hashes one rule file's content, memoized — the rule
// library is immutable for a Validator's lifetime and shared across every
// entity in a fleet.
func (v *Validator) ruleFileFingerprint(path string) (string, error) {
	v.digestMu.Lock()
	defer v.digestMu.Unlock()
	if fp, ok := v.ruleFP[path]; ok {
		return fp, nil
	}
	data, err := v.reader(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	fp := hex.EncodeToString(sum[:])
	if v.ruleFP == nil {
		v.ruleFP = make(map[string]string)
	}
	v.ruleFP[path] = fp
	return fp, nil
}

// searchPathUnion returns the sorted, deduplicated config search paths of
// the entries.
func searchPathUnion(entries []*cvl.ManifestEntry) []string {
	n := 0
	for _, entry := range entries {
		n += len(entry.ConfigSearchPaths)
	}
	roots := make([]string, 0, n)
	for _, entry := range entries {
		roots = append(roots, entry.ConfigSearchPaths...)
	}
	slices.Sort(roots)
	return slices.Compact(roots)
}
