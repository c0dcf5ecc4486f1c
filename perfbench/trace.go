package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// entity or request share a group; parent is the key of the enclosing
// span (0 for a root).
type span struct {
	Key    uint64        `json:"key"`
	Parent uint64        `json:"parent,omitempty"`
	Group  int64         `json:"group"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so measured code paths carry no
// tracing work beyond a nil check.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// key allocates a span key before the span ends, so that child spans can
// name their parent while it is still open.
func (t *tracer) key() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span.
func (t *tracer) record(key, parent uint64, group int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if key == 0 {
		key = t.next.Add(1)
	}
	s := span{Key: key, Parent: parent, Group: group, Layer: layerOf(name), Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(parent uint64, group int64, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(0, parent, group, name, start, end)
	return end.Sub(start)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one row of the "where the time goes" table: one span name
// ("layer.op") summed over all its spans.
type layerTime struct {
	Name  string
	Spans int
	// Self is the summed self time: each span's duration minus the part
	// of its interval its child spans cover. Under concurrency the sum
	// can exceed wall time.
	Self time.Duration
	// Wall is the layer's share of wall time: every instant of the traced
	// interval is split evenly among the spans that are open and have no
	// open child at that instant, so the Wall column plus Unattributed
	// adds up to the traced wall time exactly.
	Wall time.Duration
}

type attribution struct {
	Rows         []layerTime
	WallTime     time.Duration
	Unattributed time.Duration
}

// attribute computes self and wall time per layer for spans. Time inside
// the traced interval when no span is open is reported as Unattributed.
func attribute(spans []span) attribution {
	var out attribution
	if len(spans) == 0 {
		return out
	}
	byKey := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byKey[s.Key] = i
	}
	children := make(map[int][]int)
	for i, s := range spans {
		if p, ok := byKey[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	rows := map[string]*layerTime{}
	row := func(name string) *layerTime {
		r := rows[name]
		if r == nil {
			r = &layerTime{Name: name}
			rows[name] = r
		}
		return r
	}
	for i, s := range spans {
		r := row(s.Name)
		r.Spans++
		r.Self += s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}

	// Sweep the span boundaries in time order, tracking which open spans
	// are leaves (no open child) and splitting each segment among them.
	type event struct {
		at    time.Duration
		start bool
		idx   int
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		events = append(events, event{s.Start, true, i}, event{s.End, false, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		return !events[a].start && events[b].start
	})
	open := make([]bool, len(spans))
	openKids := make([]int, len(spans))
	leaves := map[string]int{}
	totalLeaves := 0
	parentOf := func(i int) int {
		if spans[i].Parent == 0 {
			return -1
		}
		if p, ok := byKey[spans[i].Parent]; ok {
			return p
		}
		return -1
	}
	setLeaf := func(i int, delta int) {
		leaves[spans[i].Name] += delta
		totalLeaves += delta
	}
	first, last := events[0].at, events[len(events)-1].at
	prev := first
	for _, ev := range events {
		if seg := ev.at - prev; seg > 0 {
			if totalLeaves == 0 {
				out.Unattributed += seg
			} else {
				for name, n := range leaves {
					if n > 0 {
						row(name).Wall += seg * time.Duration(n) / time.Duration(totalLeaves)
					}
				}
			}
		}
		prev = ev.at
		i := ev.idx
		p := parentOf(i)
		if ev.start {
			open[i] = true
			if p >= 0 && open[p] {
				if openKids[p] == 0 {
					setLeaf(p, -1)
				}
				openKids[p]++
			}
			if openKids[i] == 0 {
				setLeaf(i, +1)
			}
			continue
		}
		if openKids[i] == 0 {
			setLeaf(i, -1)
		}
		open[i] = false
		if p >= 0 && open[p] && openKids[p] > 0 {
			openKids[p]--
			if openKids[p] == 0 {
				setLeaf(p, +1)
			}
		}
	}
	out.WallTime = last - first
	for _, r := range rows {
		out.Rows = append(out.Rows, *r)
	}
	sort.Slice(out.Rows, func(a, b int) bool { return out.Rows[a].Wall > out.Rows[b].Wall })
	return out
}

// covered returns how much of [lo, hi] the spans idx cover (their union).
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var sum time.Duration
	var cur iv
	for k, v := range ivs {
		if k == 0 || v.a > cur.b {
			sum += cur.b - cur.a
			cur = v
			continue
		}
		cur.b = max(cur.b, v.b)
	}
	return sum + cur.b - cur.a
}

// writeTable renders an attribution as a Markdown table.
func writeTable(w io.Writer, title string, a attribution, entities int) {
	fmt.Fprintf(w, "### %s\n\n", title)
	fmt.Fprintf(w, "Traced wall time %.1f ms over %d entities; unattributed (no span open) %.1f ms (%.1f%%).\n\n",
		ms(a.WallTime), entities, ms(a.Unattributed), pct(a.Unattributed, a.WallTime))
	fmt.Fprintln(w, "| Layer | Span | Count | Self ms | Self µs/entity | Wall ms | Wall % |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---:|---:|")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "| %s | %s | %d | %.2f | %.1f | %.2f | %.1f |\n", layerOf(r.Name), r.Name, r.Spans, ms(r.Self),
			perEntityUS(r.Self, entities), ms(r.Wall), pct(r.Wall, a.WallTime))
	}
	fmt.Fprintln(w)
}

func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func perEntityUS(d time.Duration, n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// layerOf maps a span name such as "journal.append" to its layer.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
