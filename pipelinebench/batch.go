package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/trace"
)

// batch runs one lockdoc-report pass per operation over a trace file:
// fused decode+import+mine (cli.StreamDerive, the path every lockdoc-*
// command takes), then the documented-rule checks, violations,
// documentation for every type label and the JSON renderings.
type batch struct {
	raw  []byte
	path string // the trace file each pass reads
	opt  core.Options

	specs []analysis.RuleSpec
	ref   passOutput // phased db.Import + core.DeriveAll reference
	// refExamples counts every violation example row of the reference,
	// not only the top ones a pass renders.
	refExamples map[analysis.ViolationExample]int

	// The rules JSON goes to a reused buffer (not io.Discard) so the
	// correctness gate can compare it after the timed region.
	rules bytes.Buffer
}

// passOutput is what one pass produces, as the gate compares it.
type passOutput struct {
	rules     []byte
	checks    []analysis.CheckResult
	summaries []analysis.ViolationSummary
	examples  []analysis.ViolationExample
	docs      []string
}

// maxExamples is how many violation examples a pass renders, as in
// lockdoc-report's Tab. 8.
const maxExamples = 12

// newBatch writes raw to a trace file under dir, builds the phased
// reference and runs one warm-up pass, which must already match it.
func newBatch(raw []byte, dir string) (*batch, error) {
	b := &batch{
		raw:   raw,
		path:  filepath.Join(dir, "trace.lkdc"),
		opt:   core.Options{AcceptThreshold: core.DefaultAcceptThreshold},
		specs: fs.DocumentedRules(),
	}
	if err := os.WriteFile(b.path, raw, 0o644); err != nil {
		return nil, err
	}
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	d, err := db.Import(r, cli.ImportConfig(cli.Options{}))
	if err != nil {
		return nil, fmt.Errorf("reference import: %w", err)
	}
	results, err := core.DeriveAll(context.Background(), d, b.opt)
	if err != nil {
		return nil, fmt.Errorf("reference derivation: %w", err)
	}
	ref, err := b.analyze(nil, d, results)
	if err != nil {
		return nil, err
	}
	ref.rules = bytes.Clone(ref.rules)
	b.ref = ref
	b.refExamples = map[analysis.ViolationExample]int{}
	for _, e := range analysis.Examples(d, analysis.FindViolations(d, results), 0) {
		b.refExamples[e]++
	}
	smp, err := b.op(nil)
	if err != nil {
		return nil, err
	}
	if smp.failed {
		return nil, fmt.Errorf("warm-up pass does not match the phased reference")
	}
	return b, nil
}

// analyze is the part of a pass after derivation. The returned byte
// slices alias b's buffers until the next call.
func (b *batch) analyze(sp *span, d *db.DB, results []core.Result) (passOutput, error) {
	var out passOutput
	var err error
	s := sp.child("analysis.check")
	out.checks, err = analysis.CheckAll(d, b.specs)
	s.end()
	if err != nil {
		return out, fmt.Errorf("checking documented rules: %w", err)
	}
	s = sp.child("analysis.violations")
	viols := analysis.FindViolations(d, results)
	out.summaries = analysis.SummarizeViolations(d, viols)
	out.examples = analysis.Examples(d, viols, maxExamples)
	s.end()
	s = sp.child("analysis.doc")
	for _, label := range d.TypeLabels() {
		out.docs = append(out.docs, analysis.GenerateDoc(d, results, label))
	}
	s.end()
	s = sp.child("analysis.render")
	b.rules.Reset()
	err = analysis.WriteRulesJSON(&b.rules, d, results, false)
	if err == nil {
		err = analysis.WriteViolationsJSON(io.Discard, out.examples)
	}
	s.end()
	if err != nil {
		return out, fmt.Errorf("rendering JSON: %w", err)
	}
	out.rules = b.rules.Bytes()
	return out, nil
}

func (b *batch) op(sp *span) (sample, error) {
	a0, c0 := allocBytes(), cpuTime()
	t0 := time.Now()
	s := sp.child("core.stream")
	d, results, _, err := cli.StreamDerive(context.Background(), b.path, cli.Options{}, b.opt)
	s.end()
	if err != nil {
		return sample{}, fmt.Errorf("stream derive: %w", err)
	}
	t1 := time.Now()
	out, err := b.analyze(sp, d, results)
	if err != nil {
		return sample{}, err
	}
	t2 := time.Now()
	smp := sample{total: t2.Sub(t0), ingest: t1.Sub(t0), query: t2.Sub(t1),
		cpu: cpuTime() - c0, alloc: allocBytes() - a0}
	if diff := b.compare(out); diff != "" {
		smp.failed = true
		logf("pass output differs from the phased reference: %s", diff)
	}
	return smp, nil
}

// compare names the first output that differs from the reference, or
// returns "".
func (b *batch) compare(out passOutput) string {
	switch {
	case !bytes.Equal(out.rules, b.ref.rules):
		return "rules JSON"
	case !reflect.DeepEqual(out.summaries, b.ref.summaries):
		return "violation summaries"
	case !reflect.DeepEqual(out.docs, b.ref.docs):
		return "documentation"
	case !b.validExamples(out.examples):
		return "violation examples"
	}
	var got, want bytes.Buffer
	if analysis.WriteChecksJSON(&got, out.checks) != nil || analysis.WriteChecksJSON(&want, b.ref.checks) != nil ||
		!bytes.Equal(got.Bytes(), want.Bytes()) {
		return "documented-rule checks"
	}
	return ""
}

// validExamples reports whether got is a valid top list of the
// reference's violation examples. analysis.FindViolations and
// analysis.Examples sort on keys that leave ties (equal event counts
// within one type and function), and sort.Slice is not stable, so two
// equivalent passes may list different rows of a tie, or cut it at
// maxExamples differently. The check therefore demands the reference's
// event counts in the same order, and rows the reference also reports,
// but not the same rows.
func (b *batch) validExamples(got []analysis.ViolationExample) bool {
	if len(got) != len(b.ref.examples) {
		return false
	}
	used := map[analysis.ViolationExample]int{}
	for i, e := range got {
		used[e]++
		if e.Events != b.ref.examples[i].Events || used[e] > b.refExamples[e] {
			return false
		}
	}
	return true
}

// settled is always true: every pass is the same work.
func (b *batch) settled() bool { return true }

// finish has nothing left to check: every pass was compared as it ran.
func (b *batch) finish() error { return nil }

func (b *batch) close() {}

func (b *batch) inputs() (probeInput, error) {
	cut, err := splitTrace(b.raw)
	return probeInput{raw: b.raw, cut: cut}, err
}
