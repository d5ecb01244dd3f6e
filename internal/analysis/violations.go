package analysis

import (
	"cmp"
	"encoding/csv"
	"io"
	"slices"
	"sort"
	"strconv"

	"lockdoc/internal/core"
	"lockdoc/internal/db"
)

// Violation records all accesses to one member that ran under one
// held-lock sequence which does not comply with the member's winning
// locking rule (Sec. 7.5).
type Violation struct {
	Group  *db.ObsGroup
	Rule   db.LockSeq // the winning (violated) rule
	Held   db.LockSeq // what was actually held
	Count  uint64     // folded observations
	Events uint64     // raw memory-access events
	// Contexts counts events per distinct (function, stack) context.
	Contexts map[db.AccessCtx]uint64
}

// FindViolations scans derivation results for observations violating the
// winning rule. Rules with full support (s_r = 1) cannot be violated;
// the "no lock" rule is satisfied by every access.
//
// Violations are ordered by type label, member and descending event
// count; ties fall back to writes before reads and then the held
// sequence, which makes the order total and independent of map
// iteration.
func FindViolations(d *db.DB, results []core.Result) []Violation {
	var out []Violation
	for _, res := range results {
		if res.Winner == nil || res.Winner.NoLock() || res.Winner.Sr >= 1.0 {
			continue
		}
		for _, so := range res.Group.Seqs {
			if compliesWith(res.Winner.Seq, so.Seq) {
				continue
			}
			out = append(out, Violation{
				Group: res.Group, Rule: res.Winner.Seq, Held: so.Seq,
				Count: so.Count, Events: so.Events, Contexts: so.Contexts,
			})
		}
	}
	slices.SortFunc(out, func(a, b Violation) int {
		if c := cmp.Compare(a.Group.TypeLabel(), b.Group.TypeLabel()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Group.MemberName(), b.Group.MemberName()); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Events, a.Events); c != 0 {
			return c
		}
		return compareTies(a, b)
	})
	return out
}

// compareTies breaks ties between violations of equal rank: writes
// before reads, then by held sequence (key IDs in order, as in the
// sequence's Signature).
func compareTies(a, b Violation) int {
	if a.Group.Key.Write != b.Group.Key.Write {
		if a.Group.Key.Write {
			return -1
		}
		return 1
	}
	return slices.Compare(a.Held, b.Held)
}

func compliesWith(rule, held db.LockSeq) bool {
	if len(rule) == 0 {
		return true
	}
	j := 0
	for _, x := range held {
		if x == rule[j] {
			j++
			if j == len(rule) {
				return true
			}
		}
	}
	return false
}

// ViolationSummary is one row of Tab. 7: violating events, distinct
// members and distinct contexts per data type.
type ViolationSummary struct {
	TypeLabel string
	Events    uint64
	Members   int
	Contexts  int
}

// SummarizeViolations aggregates violations per type label. Labels with
// observations but no violations appear with zero counts, matching the
// all-zero rows of Tab. 7.
func SummarizeViolations(d *db.DB, violations []Violation) []ViolationSummary {
	type agg struct {
		events   uint64
		members  map[string]bool
		contexts map[db.AccessCtx]bool
	}
	accs := make(map[string]*agg)
	for _, label := range d.TypeLabels() {
		accs[label] = &agg{members: map[string]bool{}, contexts: map[db.AccessCtx]bool{}}
	}
	for _, v := range violations {
		a := accs[v.Group.TypeLabel()]
		if a == nil {
			a = &agg{members: map[string]bool{}, contexts: map[db.AccessCtx]bool{}}
			accs[v.Group.TypeLabel()] = a
		}
		a.events += v.Events
		a.members[v.Group.MemberName()] = true
		for c := range v.Contexts {
			a.contexts[c] = true
		}
	}
	labels := make([]string, 0, len(accs))
	for l := range accs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]ViolationSummary, 0, len(labels))
	for _, l := range labels {
		a := accs[l]
		out = append(out, ViolationSummary{
			TypeLabel: l, Events: a.events,
			Members: len(a.members), Contexts: len(a.contexts),
		})
	}
	return out
}

// ViolationExample is one row of Tab. 8: a concrete violating access
// with enough context to start debugging.
type ViolationExample struct {
	TypeMember string // "inode:ext4.i_hash"
	Rule       string // the violated rule
	Held       string // locks actually held
	Location   string // file:line of the innermost function
	Stack      string // call chain
	Events     uint64
}

// WriteCounterexamplesCSV exports every violating observation as CSV —
// the paper's counterexample-extraction step (Sec. 7.2 reports it as
// the single most expensive query, 172 minutes on MariaDB; here it is a
// linear pass). Columns: type label, member, access type, mined rule,
// held locks, location, stack, events.
func WriteCounterexamplesCSV(w io.Writer, d *db.DB, violations []Violation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"type", "member", "access", "rule", "held", "location", "stack", "events",
	}); err != nil {
		return err
	}
	for _, v := range violations {
		ctxs := make([]db.AccessCtx, 0, len(v.Contexts))
		for c := range v.Contexts {
			ctxs = append(ctxs, c)
		}
		sort.Slice(ctxs, func(i, j int) bool {
			if ctxs[i].FuncID != ctxs[j].FuncID {
				return ctxs[i].FuncID < ctxs[j].FuncID
			}
			return ctxs[i].StackID < ctxs[j].StackID
		})
		for _, c := range ctxs {
			err := cw.Write([]string{
				v.Group.TypeLabel(), v.Group.MemberName(), v.Group.AccessType(),
				d.SeqString(v.Rule), d.SeqString(v.Held),
				d.FuncLocation(c.FuncID), d.StackTrace(c.StackID),
				strconv.FormatUint(v.Contexts[c], 10),
			})
			if err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Examples renders the top violating contexts, at most max rows, ordered
// by descending event count, then type label and function. Ties fall
// back to writes before reads, the held sequence, the stack and the
// member, so the order is total and independent of map iteration.
func Examples(d *db.DB, violations []Violation, max int) []ViolationExample {
	type flat struct {
		v      Violation
		ctx    db.AccessCtx
		events uint64
	}
	var all []flat
	for _, v := range violations {
		for c, n := range v.Contexts {
			all = append(all, flat{v: v, ctx: c, events: n})
		}
	}
	slices.SortFunc(all, func(a, b flat) int {
		if c := cmp.Compare(b.events, a.events); c != 0 {
			return c
		}
		if c := cmp.Compare(a.v.Group.TypeLabel(), b.v.Group.TypeLabel()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ctx.FuncID, b.ctx.FuncID); c != 0 {
			return c
		}
		if c := compareTies(a.v, b.v); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ctx.StackID, b.ctx.StackID); c != 0 {
			return c
		}
		return cmp.Compare(a.v.Group.MemberName(), b.v.Group.MemberName())
	})
	if max > 0 && len(all) > max {
		all = all[:max]
	}
	out := make([]ViolationExample, 0, len(all))
	for _, f := range all {
		out = append(out, ViolationExample{
			TypeMember: f.v.Group.TypeLabel() + "." + f.v.Group.MemberName(),
			Rule:       d.SeqString(f.v.Rule),
			Held:       d.SeqString(f.v.Held),
			Location:   d.FuncLocation(f.ctx.FuncID),
			Stack:      d.StackTrace(f.ctx.StackID),
			Events:     f.events,
		})
	}
	return out
}
