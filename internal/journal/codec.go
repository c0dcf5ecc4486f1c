package journal

import (
	"encoding/binary"
	"errors"
	"slices"

	"configvalidator/internal/cvl"
)

// errMalformed reports a v2 payload that passed its CRC but does not
// decode — recovery treats it like any other corrupt record.
var errMalformed = errors.New("journal: malformed record payload")

// minResultSize is the fewest bytes an encoded result takes: five string
// references (entity, manifest entity, message, detail, file), the status
// and the rule flag, a byte each — a result without a rule, such as a
// degraded result for a config file that could not be read. A result count
// is bounded by it against the bytes left before anything is allocated,
// as the table's entry count and a rule's tag count are bounded by the
// bytes left (each entry and tag takes at least one).
const minResultSize = 7

// encoder builds one v2 payload.
type encoder struct {
	refs  map[string]uint64 // string -> table index, in first-use order
	table []byte            // the table's entries: uvarint(len) bytes
	body  []byte            // the fields, referencing the table
}

// appendRecord appends rec's v2 payload (see the package doc) to dst.
func appendRecord(dst []byte, rec *Record) []byte {
	e := &encoder{refs: make(map[string]uint64)}
	e.str(rec.Entity)
	e.str(rec.Digest)
	e.str(rec.Err)
	if r := rec.Report; r == nil {
		e.body = append(e.body, 0)
	} else {
		e.body = append(e.body, 1)
		e.str(r.Entity)
		e.str(r.Type)
		e.body = binary.AppendUvarint(e.body, uint64(len(r.Results)))
		for i := range r.Results {
			res := &r.Results[i]
			e.str(res.Entity)
			e.str(res.ManifestEntity)
			e.body = binary.AppendVarint(e.body, int64(res.Status))
			e.str(res.Message)
			e.str(res.Detail)
			e.str(res.File)
			if res.Rule == nil {
				e.body = append(e.body, 0)
				continue
			}
			e.body = append(e.body, 1)
			e.str(res.Rule.Name)
			e.str(res.Rule.Type)
			e.str(res.Rule.Severity)
			e.str(res.Rule.SuggestedAction)
			e.body = binary.AppendUvarint(e.body, uint64(len(res.Rule.Tags)))
			for _, tag := range res.Rule.Tags {
				e.str(tag)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.refs)))
	dst = append(dst, e.table...)
	return append(dst, e.body...)
}

// str writes a reference to s, adding s to the table on its first use.
func (e *encoder) str(s string) {
	i, ok := e.refs[s]
	if !ok {
		i = uint64(len(e.refs))
		e.refs[s] = i
		e.table = binary.AppendUvarint(e.table, uint64(len(s)))
		e.table = append(e.table, s...)
	}
	e.body = binary.AppendUvarint(e.body, i)
}

// decoder decodes v2 payloads. It accepts exactly the encoder's output:
// every varint minimal, the table free of duplicates and referenced in
// first-use order with no unused entry, flags 0 or 1, and no trailing
// bytes — so any payload it accepts re-encodes to the same bytes. A
// decoder is reused across the records of one replay; it is not safe for
// concurrent use.
type decoder struct {
	p    []byte   // the bytes not yet consumed
	strs []string // the string table
	used int      // table entries referenced so far
	bad  bool     // sticky: a read failed, the payload is rejected

	index    map[string]int   // interned string -> its slot in interned
	interned []internedString // every distinct string read so far
	gen      uint64           // the record being read, counting from 1

	rules map[string][]*RuleRecord // interned rules, by name
	tags  []string                 // scratch: the tags of the rule being read
}

type internedString struct {
	s   string
	gen uint64 // the last record whose table lists s
}

func (d *decoder) record(payload []byte) (Record, error) {
	d.p, d.used, d.bad = payload, 0, false
	if !d.table() {
		return Record{}, errMalformed
	}
	rec := Record{Entity: d.str(), Digest: d.str(), Err: d.str()}
	if d.flag() {
		rec.Report = d.report()
	}
	if d.bad || len(d.p) != 0 || d.used != len(d.strs) {
		return Record{}, errMalformed
	}
	return rec, nil
}

// table reads the string table into d.strs. Strings are interned across
// the records a decoder reads: the messages, rule names and files of one
// fleet's reports repeat in every record, and a replayed journal then
// holds each of them once, allocated by the first record that has it.
// The same lookup rejects a table that lists a string twice.
func (d *decoder) table() bool {
	n := d.uvarint()
	if d.bad || n > uint64(len(d.p)) {
		return false
	}
	if d.index == nil {
		d.index = make(map[string]int)
	}
	d.gen++
	d.strs = d.strs[:0]
	for i := uint64(0); i < n; i++ {
		l := d.uvarint()
		if d.bad || l > uint64(len(d.p)) {
			return false
		}
		b := d.p[:l]
		d.p = d.p[l:]
		k, ok := d.index[string(b)]
		if !ok {
			k = len(d.interned)
			s := string(b)
			d.interned = append(d.interned, internedString{s: s})
			d.index[s] = k
		}
		e := &d.interned[k]
		if e.gen == d.gen {
			return false // listed twice
		}
		e.gen = d.gen
		d.strs = append(d.strs, e.s)
	}
	return true
}

func (d *decoder) report() *ReportRecord {
	rr := &ReportRecord{Entity: d.str(), Type: d.str()}
	n := d.uvarint()
	if d.bad || n > uint64(len(d.p))/minResultSize {
		d.bad = true
		return nil
	}
	rr.Results = make([]ResultRecord, n)
	for i := range rr.Results {
		res := &rr.Results[i]
		res.Entity = d.str()
		res.ManifestEntity = d.str()
		res.Status = int(d.varint())
		res.Message = d.str()
		res.Detail = d.str()
		res.File = d.str()
		if d.flag() {
			res.Rule = d.rule()
		}
	}
	return rr
}

// rule reads a rule. The same rules recur in every record of a fleet's
// journal, so a decoder interns them across one replay: each distinct
// rule's RuleRecord, and the cvl.Rule Report rebuilds from it, are
// allocated once, not once per result. Interned rules are shared and
// read-only, as the rules of a live scan's reports are.
func (d *decoder) rule() *RuleRecord {
	name, typ, severity, action := d.str(), d.str(), d.str(), d.str()
	nt := d.uvarint()
	if d.bad || nt > uint64(len(d.p)) {
		d.bad = true
		return nil
	}
	d.tags = d.tags[:0]
	for k := uint64(0); k < nt; k++ {
		d.tags = append(d.tags, d.str())
	}
	if d.bad {
		return nil
	}
	for _, r := range d.rules[name] {
		if r.Type == typ && r.Severity == severity && r.SuggestedAction == action && slices.Equal(r.Tags, d.tags) {
			return r
		}
	}
	r := &RuleRecord{Name: name, Type: typ, Severity: severity, SuggestedAction: action}
	if nt > 0 {
		r.Tags = slices.Clone(d.tags)
	}
	r.rule = &cvl.Rule{}
	r.fill(r.rule)
	if d.rules == nil {
		d.rules = make(map[string][]*RuleRecord)
	}
	d.rules[name] = append(d.rules[name], r)
	return r
}

// str reads a string reference. A reference may name an entry already
// used or the next unused one, never one past it: the encoder adds
// entries in first-use order.
func (d *decoder) str() string {
	i := d.uvarint()
	if d.bad || i > uint64(d.used) || i >= uint64(len(d.strs)) {
		d.bad = true
		return ""
	}
	if i == uint64(d.used) {
		d.used++
	}
	return d.strs[i]
}

// flag reads a presence byte, which must be 0 or 1.
func (d *decoder) flag() bool {
	if d.bad || len(d.p) == 0 || d.p[0] > 1 {
		d.bad = true
		return false
	}
	v := d.p[0] == 1
	d.p = d.p[1:]
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := uvarint(d.p)
	if n == 0 {
		d.bad = true
		return 0
	}
	d.p = d.p[n:]
	return v
}

// varint reads a zigzag-encoded signed varint (binary.AppendVarint).
func (d *decoder) varint() int64 {
	u := d.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// uvarint decodes a minimally encoded uvarint from the front of b and
// returns it with its length, or a length of 0 when b does not start
// with one: truncated, overflowing 64 bits, or padded with a redundant
// zero group (which binary.Uvarint would accept).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == binary.MaxVarintLen64 {
			return 0, 0
		}
		if c < 0x80 {
			if (i == binary.MaxVarintLen64-1 && c > 1) || (c == 0 && i > 0) {
				return 0, 0
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
