package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/cli"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/fs"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
)

// probeInput is what the layer probe runs on: the workload's whole
// trace, and a base/chunk cut for the incremental layers.
type probeInput struct {
	raw     []byte
	cut     split
	docType string // "" picks inode:ext4 when the trace has it
}

// timed runs fn under a child span of p and returns its wall time.
func timed(p *span, name string, fn func() error) (time.Duration, error) {
	s := p.child(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.end()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// probe collects each layer's samples over the repetitions.
type probe struct {
	in   probeInput
	seed int64
	cfg  db.Config
	opt  core.Options
	ctx  context.Context

	decode, imp, derive, derive1, stream        []time.Duration
	check, viols, doc, render                   []time.Duration
	consume, seal, delta, segAppend, segCompact []time.Duration
	upload, handlerReads                        []time.Duration
	allocsPerEvent, reused, remined             []float64
	events, groups, txns, seals, specPasses     float64
	cacheHits, cacheMisses                      float64
}

// probeLayers times every layer's public entry points from outside on
// in, reps times each, under spans below sp, and returns the per-layer
// metrics. The last repetition also runs handlerReqs requests of the
// serve-append mix against Handler().ServeHTTP.
func probeLayers(sp *span, in probeInput, seed int64, reps, handlerReqs int) (map[string]float64, error) {
	p := &probe{in: in, seed: seed, cfg: cli.ImportConfig(cli.Options{}),
		opt: core.Options{AcceptThreshold: core.DefaultAcceptThreshold}, ctx: context.Background()}
	for i := 0; i < reps; i++ {
		rep := sp.child("bench.probe")
		err := p.batchLayers(rep)
		if err == nil {
			err = p.liveLayers(rep)
		}
		if err == nil {
			n := 0
			if i == reps-1 {
				n = handlerReqs
			}
			err = p.serverLayers(rep, n)
		}
		rep.end()
		if err != nil {
			return nil, err
		}
	}
	importMs, deriveMs, streamMs := medianMs(p.imp), medianMs(p.derive), medianMs(p.stream)
	return map[string]float64{
		"trace.decode_ms":            medianMs(p.decode),
		"trace.decode_mb_per_s":      float64(len(in.raw)) / 1e3 / medianMs(p.decode),
		"db.import_ms":               importMs,
		"db.import_allocs_per_event": median(p.allocsPerEvent),
		"db.consume_ms":              medianMs(p.consume),
		"db.seal_ms":                 medianMs(p.seal),
		"db.events":                  p.events,
		"db.groups":                  p.groups,
		"db.transactions":            p.txns,
		"core.derive_ms":             deriveMs,
		"core.derive_w1_ms":          medianMs(p.derive1),
		"core.stream_ms":             streamMs,
		"core.stream_vs_phased":      streamMs / (importMs + deriveMs),
		"core.stream_seals":          p.seals,
		"core.stream_spec_passes":    p.specPasses,
		"core.stream_reused_ratio":   median(p.reused),
		"core.delta_ms":              medianMs(p.delta),
		"core.delta_remined_ratio":   median(p.remined),
		"analysis.check_ms":          medianMs(p.check),
		"analysis.violations_ms":     medianMs(p.viols),
		"analysis.doc_ms":            medianMs(p.doc),
		"analysis.render_ms":         medianMs(p.render),
		"segstore.append_ms":         medianMs(p.segAppend),
		"segstore.compact_ms":        medianMs(p.segCompact),
		"server.upload_ms":           medianMs(p.upload),
		"server.handler_read_ms_p50": medianMs(p.handlerReads),
		"server.cache_hit_ratio":     p.cacheHits / (p.cacheHits + p.cacheMisses),
	}, nil
}

func (p *probe) reader() (*trace.Reader, error) { return trace.NewReader(bytes.NewReader(p.in.raw)) }

// batchLayers times decode, import and mining of the whole trace, both
// phased and fused, and the analysis layers on the fused result.
func (p *probe) batchLayers(rep *span) error {
	var st trace.Stats
	d, err := timed(rep, "trace.decode", func() error {
		r, err := p.reader()
		if err == nil {
			st, err = trace.Collect(r)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.decode = append(p.decode, d)
	p.events = float64(st.Events)

	var phased *db.DB
	a0 := allocObjects()
	d, err = timed(rep, "db.import", func() error {
		r, err := p.reader()
		if err == nil {
			phased, err = db.Import(r, p.cfg)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.allocsPerEvent = append(p.allocsPerEvent, float64(allocObjects()-a0)/float64(st.Events))
	p.imp = append(p.imp, d)
	p.groups, p.txns = float64(len(phased.Groups())), float64(phased.Transactions)

	for _, w := range []struct {
		name string
		par  int
		out  *[]time.Duration
	}{{"core.derive", 0, &p.derive}, {"core.derive_w1", 1, &p.derive1}} {
		opt := p.opt
		opt.Parallelism = w.par
		d, err = timed(rep, w.name, func() error {
			_, err := core.DeriveAll(p.ctx, phased, opt)
			return err
		})
		if err != nil {
			return err
		}
		*w.out = append(*w.out, d)
	}

	var view *db.DB
	var results []core.Result
	var sst core.StreamStats
	d, err = timed(rep, "core.stream", func() error {
		r, err := p.reader()
		if err != nil {
			return err
		}
		sd := core.NewStreamDeriver(db.New(p.cfg), p.opt)
		defer sd.Close()
		if _, err := sd.Consume(r); err != nil {
			return err
		}
		view, results, sst, err = sd.Derive(p.ctx)
		return err
	})
	if err != nil {
		return err
	}
	p.stream = append(p.stream, d)
	p.seals, p.specPasses = float64(sst.Seals), float64(sst.SpecPasses)
	p.reused = append(p.reused, float64(sst.Delta.Reused)/float64(sst.Delta.Groups))
	if p.in.docType == "" {
		p.in.docType = docTypeOf(view)
	}

	d, err = timed(rep, "analysis.check", func() error {
		_, err := analysis.CheckAll(view, fs.DocumentedRules())
		return err
	})
	if err != nil {
		return err
	}
	p.check = append(p.check, d)
	var examples []analysis.ViolationExample
	d, _ = timed(rep, "analysis.violations", func() error {
		viols := analysis.FindViolations(view, results)
		analysis.SummarizeViolations(view, viols)
		examples = analysis.Examples(view, viols, 12)
		return nil
	})
	p.viols = append(p.viols, d)
	d, _ = timed(rep, "analysis.doc", func() error {
		for _, label := range view.TypeLabels() {
			analysis.GenerateDoc(view, results, label)
		}
		return nil
	})
	p.doc = append(p.doc, d)
	d, err = timed(rep, "analysis.render", func() error {
		if err := analysis.WriteRulesJSON(io.Discard, view, results, false); err != nil {
			return err
		}
		return analysis.WriteViolationsJSON(io.Discard, examples)
	})
	if err != nil {
		return err
	}
	p.render = append(p.render, d)
	return nil
}

// liveLayers times what one lockdocd append costs layer by layer: live
// consume of one chunk, seal, delta derivation, and the segment store's
// trace append and compaction, each on the base/chunk cut.
func (p *probe) liveLayers(rep *span) error {
	base, chunk := p.in.cut.base(), p.in.cut.chunk(0)
	live := db.New(p.cfg)
	r, err := trace.NewReader(bytes.NewReader(base))
	if err != nil {
		return err
	}
	if _, err := live.Consume(r); err != nil {
		return fmt.Errorf("consuming the base: %w", err)
	}
	v0 := live.Seal()
	dd := core.NewDeltaDeriver(p.opt)
	if _, _, err := dd.DeriveAll(p.ctx, v0); err != nil {
		return err
	}
	store, err := segstore.Open("probe", segstore.Options{FS: newMemFS()})
	if err != nil {
		return err
	}
	defer store.Close()
	if err := store.ResetTrace(base); err != nil {
		return err
	}
	if err := store.Compact(v0); err != nil {
		return err
	}

	d, err := timed(rep, "db.consume", func() error {
		_, err := live.Consume(trace.NewContinuationReader(bytes.NewReader(chunk), trace.ReaderOptions{}))
		return err
	})
	if err != nil {
		return err
	}
	p.consume = append(p.consume, d)
	var v1 *db.DB
	d, _ = timed(rep, "db.seal", func() error {
		v1 = live.Seal()
		return nil
	})
	p.seal = append(p.seal, d)
	var dst core.DeltaStats
	d, err = timed(rep, "core.delta", func() error {
		_, dst, err = dd.DeriveAll(p.ctx, v1)
		return err
	})
	if err != nil {
		return err
	}
	p.delta = append(p.delta, d)
	p.remined = append(p.remined, float64(dst.Remined)/float64(dst.Groups))
	d, err = timed(rep, "segstore.append", func() error { return store.AppendTrace(chunk) })
	if err != nil {
		return err
	}
	p.segAppend = append(p.segAppend, d)
	d, err = timed(rep, "segstore.compact", func() error { return store.Compact(v1) })
	if err != nil {
		return err
	}
	p.segCompact = append(p.segCompact, d)
	return nil
}

// serverLayers times a replace upload of the whole trace through the
// in-process handler and then, when reqs > 0, serves reqs requests of
// the serve-append mix the same way, diffing the rule-cache counters of
// /metrics over them.
func (p *probe) serverLayers(rep *span, reqs int) error {
	l, err := newLockdocd()
	if err != nil {
		return err
	}
	defer l.close()
	rt := inProcess(l.srv.Handler())
	d, err := timed(rep, "server.upload", func() error { return upload(rt, nsRO, p.in.raw) })
	if err != nil {
		return err
	}
	p.upload = append(p.upload, d)
	if reqs == 0 {
		return nil
	}
	if err := upload(rt, nsLive, p.in.cut.base()); err != nil {
		return err
	}
	l.live = p.in.cut
	mix := newRequestMix(p.seed, p.in.docType)
	for _, path := range mix.reads {
		if status, body, _ := rt("GET", path, nil); status != http.StatusOK {
			return fmt.Errorf("GET %s: status %d: %s", path, status, firstLine(body))
		}
	}
	hits0, misses0, err := cacheCounters(rt)
	if err != nil {
		return err
	}
	for n := 0; n < reqs; n++ {
		path := mix.next()
		if path == "" {
			body := l.appendBody()
			if body == nil {
				continue
			}
			if _, err := timed(rep, "server.handler.append", func() error {
				status, resp, _ := rt("POST", appendPath, body)
				if status != http.StatusCreated {
					return fmt.Errorf("status %d: %s", status, firstLine(resp))
				}
				return nil
			}); err != nil {
				return err
			}
			l.next++
			continue
		}
		d, err := timed(rep, "server.handler."+spanOf(path), func() error {
			status, resp, _ := rt("GET", path, nil)
			if status != http.StatusOK {
				return fmt.Errorf("GET %s: status %d: %s", path, status, firstLine(resp))
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.handlerReads = append(p.handlerReads, d)
	}
	hits1, misses1, err := cacheCounters(rt)
	if err != nil {
		return err
	}
	p.cacheHits, p.cacheMisses = hits1-hits0, misses1-misses0
	return nil
}

// cacheCounters reads lockdocd's rule-cache hit and miss counters from
// /metrics.
func cacheCounters(rt roundTrip) (hits, misses float64, err error) {
	status, body, err := rt("GET", "/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", status)
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		var dst *float64
		switch name {
		case "lockdocd_cache_hits_total":
			dst = &hits
		case "lockdocd_cache_misses_total":
			dst = &misses
		}
		if !ok || dst == nil {
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, fmt.Errorf("parsing %s: %w", name, err)
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics lacks the lockdocd_cache_{hits,misses}_total counters")
	}
	return hits, misses, nil
}

// docTypeOf is the type label the documentation requests ask for:
// inode:ext4, as in the paper's Fig. 8, when the trace has it.
func docTypeOf(d *db.DB) string {
	labels := d.TypeLabels()
	for _, l := range labels {
		if l == "inode:ext4" {
			return l
		}
	}
	if len(labels) == 0 {
		return ""
	}
	return labels[0]
}
