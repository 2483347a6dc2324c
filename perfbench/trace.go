package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one timed interval of the traced run: a call (or a batch of
// Count identical calls) into one layer, and the span that caused it.
type span struct {
	Name       string
	Parent     int // index into tracer.spans; -1 for a root
	Start, End time.Duration
	Count      int64
}

// tracer keeps the traced run's spans in memory; they are written out
// once the run ends. Spans nest through an explicit stack, so the
// tracer is for one goroutine; spans of concurrent work (the load
// generator's requests) are added afterwards with add. A nil *tracer
// records nothing, so untraced code paths call it freely.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int

	// prefix is prepended to the names of new spans.
	prefix string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock: time since the tracer started.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: t.prefix + name, Parent: parent, Start: t.now(), Count: 1})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id (which must be the innermost open span), recording
// how many calls it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.spans[id].Count = count
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a finished span with explicit times under parent.
func (t *tracer) add(name string, parent int, start, end time.Duration, count int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: t.prefix + name, Parent: parent, Start: start, End: end, Count: count})
}

// layerTotals aggregates spans of one name.
type layerTotals struct {
	Spans int
	Calls int64
	Total time.Duration
	Self  time.Duration
}

// perCall is the mean time of one call, in the given unit.
func (l layerTotals) perCall(unit time.Duration) float64 {
	if l.Calls == 0 {
		return 0
	}
	return float64(l.Total) / float64(l.Calls) / float64(unit)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Children may overlap each other
// (concurrent requests), so their union is subtracted, clipped to the
// parent.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]time.Duration{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered time.Duration
		var curA, curB time.Duration
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curA, curB, open = iv[0], iv[1], true
			case iv[0] <= curB:
				if iv[1] > curB {
					curB = iv[1]
				}
			default:
				covered += curB - curA
				curA, curB = iv[0], iv[1]
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// totals aggregates the spans by name.
func (t *tracer) totals() map[string]layerTotals {
	out := map[string]layerTotals{}
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		l := out[s.Name]
		l.Spans++
		l.Calls += s.Count
		l.Total += s.End - s.Start
		l.Self += self[i]
		out[s.Name] = l
	}
	return out
}

// writeSpans writes every span as one JSON line:
// {"id","parent","name","start_us","end_us","count"}.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_us":%.3f,"end_us":%.3f,"count":%d}`+"\n",
			i, s.Parent, s.Name, float64(s.Start)/1e3, float64(s.End)/1e3, s.Count)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTable prints the per-layer self-time table, largest self
// time first: span count, call count, total and self time, and each
// layer's share of the root spans' time.
func printSelfTable(w io.Writer, tot map[string]layerTotals, spans []span) {
	var root time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			root += s.End - s.Start
		}
	}
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if tot[names[i]].Self != tot[names[j]].Self {
			return tot[names[i]].Self > tot[names[j]].Self
		}
		return names[i] < names[j]
	})
	tw := tabwriter.NewWriter(w, 0, 2, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer span\tspans\tcalls\ttotal ms\tself ms\tself %\tper call\t")
	for _, n := range names {
		l := tot[n]
		share := 0.0
		if root > 0 {
			share = 100 * float64(l.Self) / float64(root)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\t%.1f\t%s\t\n", n, l.Spans, l.Calls,
			float64(l.Total)/1e6, float64(l.Self)/1e6, share, fmtPerCall(l))
	}
	_ = tw.Flush()
}

// fmtPerCall renders a layer's mean per-call time at a readable scale.
func fmtPerCall(l layerTotals) string {
	if l.Calls == 0 {
		return "-"
	}
	d := time.Duration(float64(l.Total) / float64(l.Calls))
	return strings.TrimSpace(d.String())
}
