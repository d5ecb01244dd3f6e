package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lockdoc/internal/obs"
)

// span is an obs.Span that remembers its children, which obs.Span does
// not expose, so the report can subtract them for self time. A nil
// *span is the untraced case: every method is a no-op on it.
type span struct {
	s    *obs.Span
	kids []*span
}

func rootSpan(name string) *span { return &span{s: obs.StartSpan(name)} }

func (p *span) child(name string) *span {
	if p == nil {
		return nil
	}
	c := &span{s: p.s.StartChild(name)}
	p.kids = append(p.kids, c)
	return c
}

func (p *span) end() {
	if p != nil {
		p.s.End()
	}
}

func (p *span) dur() time.Duration {
	if p == nil {
		return 0
	}
	return p.s.Duration()
}

// self is the span's duration minus the time its children cover; the
// benchmark's children are sequential, so their durations add up.
func (p *span) self() time.Duration {
	d := p.dur()
	for _, k := range p.kids {
		d -= k.dur()
	}
	return d
}

// layerOf maps a span name such as "db.import" to its layer, "db".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// spanReport renders the traced run's span tree, with sibling spans of
// one name merged into one line (count, total and self time), each
// layer's self time, and the tracing overhead.
func spanReport(root *span, overhead string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== span tree (siblings of one name merged) ==\n%-48s %6s %12s %12s\n", "span", "count", "total", "self")
	writeMerged(&b, []*span{root}, 0)
	layers := map[string]time.Duration{}
	var walk func(p *span)
	walk = func(p *span) {
		layers[layerOf(p.s.Name())] += p.self()
		for _, k := range p.kids {
			walk(k)
		}
	}
	for _, k := range root.kids {
		walk(k)
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(&b, "== self time by layer ==\n")
	for _, l := range names {
		fmt.Fprintf(&b, "%-48s %12s\n", l, layers[l].Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "== tracing overhead ==\n%s\n", overhead)
	return b.String()
}

// writeMerged writes one line for the spans group (siblings sharing a
// name) and recurses into their children, merged by name in order of
// first appearance.
func writeMerged(b *strings.Builder, group []*span, depth int) {
	var total, self time.Duration
	var kids []*span
	for _, p := range group {
		total += p.dur()
		self += p.self()
		kids = append(kids, p.kids...)
	}
	fmt.Fprintf(b, "%s%-*s %6d %12s %12s\n", strings.Repeat("  ", depth), 48-2*depth, group[0].s.Name(),
		len(group), total.Round(time.Microsecond), self.Round(time.Microsecond))
	var order []string
	byName := map[string][]*span{}
	for _, k := range kids {
		name := k.s.Name()
		if byName[name] == nil {
			order = append(order, name)
		}
		byName[name] = append(byName[name], k)
	}
	for _, name := range order {
		writeMerged(b, byName[name], depth+1)
	}
}
