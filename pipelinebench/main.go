// Command pipelinebench is the repository's benchmark. One run builds
// its inputs from a seed, drives the LockDoc pipeline and lockdocd
// through their public functions for a fixed time, checks every output
// against an independently computed reference, and prints one JSON
// result line:
//
//	bash pipelinebench/run.sh --workload mix-import --seed 1 --seconds 30 --trace 0
//
// Workloads (one process, one client goroutine each):
//
//	mix-import    lockdoc-report passes over the simulated kernel mix
//	              (import-bound)
//	synth-mine    the same passes over a synthetic wide-lock trace
//	              (mining-bound)
//	serve-append  a closed-loop lockdocd client over loopback: 95% reads
//	              over a static and a growing namespace, 5% appends
//
// With --trace 0 the run reports the end-to-end metrics, measured
// untraced at the default GOMAXPROCS. With --trace 1 it instead times
// each layer's public calls from outside under obs spans (the per-layer
// metrics), writes the span tree with every layer's self time, and
// measures the tracing overhead by alternating traced and untraced
// operations.
//
// Every operation's output is checked outside its timed region: batch
// passes against a phased db.Import + core.DeriveAll reference built at
// set-up, serve reads of the static namespace against their set-up
// responses, and the growing namespace at the end against a fresh
// upload of the same bytes. A wrong or refused operation counts as
// failed, and any failure makes the run incorrect.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizes are the input and repetition sizes of a run; the self-check
// test shrinks them.
type sizes struct {
	mixScale     int // kernel-mix scale of mix-import and serve-append
	synthRounds  int // critical sections per synthetic type
	setups       int // set-ups per run; setup_s is their median
	probeReps    int // repetitions of each layer probe in a traced run
	handlerReqs  int // requests of the in-process server probe
	minOverheadN int // minimum traced/untraced operation pairs
}

var fullSizes = sizes{
	mixScale: 2, synthRounds: 131,
	setups: 3, probeReps: 3, handlerReqs: 400, minOverheadN: 3,
}

// Metric names by mode. Each workload reports every one of them.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},          // median set-up: inputs, files, server, warm-up
		{"peak_rss_mb", "MB"},     // peak resident memory of the process
		{"alloc_mb_per_op", "MB"}, // heap allocated per operation
		{"cpu_ms_per_op", "ms"},   // CPU time of all threads per operation
		{"ingest_ms_p50", "ms"},   // batch: trace to mined rules; serve: an append
		{"query_ms_p50", "ms"},    // batch: checks, violations, docs, JSON; serve: a read
	}
	perLayer = []metricDef{
		{"trace.decode_ms", "ms"},
		{"trace.decode_mb_per_s", "MB/s"},
		{"db.import_ms", "ms"},
		{"db.import_allocs_per_event", "allocs/event"},
		{"db.consume_ms", "ms"},
		{"db.seal_ms", "ms"},
		{"db.events", "count"},
		{"db.groups", "count"},
		{"db.transactions", "count"},
		{"core.derive_ms", "ms"},
		{"core.derive_w1_ms", "ms"},
		{"core.stream_ms", "ms"},
		{"core.stream_vs_phased", "ratio"},
		{"core.stream_seals", "count"},
		{"core.stream_spec_passes", "count"},
		{"core.stream_reused_ratio", "ratio"},
		{"core.delta_ms", "ms"},
		{"core.delta_remined_ratio", "ratio"},
		{"analysis.check_ms", "ms"},
		{"analysis.violations_ms", "ms"},
		{"analysis.doc_ms", "ms"},
		{"analysis.render_ms", "ms"},
		{"segstore.append_ms", "ms"},
		{"segstore.compact_ms", "ms"},
		{"server.upload_ms", "ms"},
		{"server.handler_read_ms_p50", "ms"},
		{"server.cache_hit_ratio", "ratio"},
	}
)

type metricDef struct{ name, unit string }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed operation. A batch pass has both an ingest part
// (trace bytes to mined rules) and a query part (checks, violations,
// documentation, JSON); a serve request is one or the other.
type sample struct {
	total, ingest, query time.Duration
	cpu                  time.Duration // process CPU time, all threads
	alloc                uint64        // heap bytes allocated
	failed               bool
}

// runner runs one benchmark workload after set-up.
type runner interface {
	// op runs one operation, timing its public calls under sp (nil
	// when untraced). An error means the benchmark cannot go on.
	op(sp *span) (sample, error)
	// settled reports whether the measured phase may end after the
	// last operation.
	settled() bool
	// finish runs the end-of-run correctness gate.
	finish() error
	// inputs is what the traced run's layer probe runs on.
	inputs() (probeInput, error)
	close()
}

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	outdir   string
	sizes    sizes
}

var workloads = []string{"mix-import", "synth-mine", "serve-append"}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pipelinebench: "+format+"\n", args...)
}

func main() {
	cfg := config{sizes: fullSizes}
	fl := flag.NewFlagSet("pipelinebench", flag.ContinueOnError)
	fl.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %q", workloads))
	fl.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fl.IntVar(&cfg.seconds, "seconds", 30, "how long the measured phase runs")
	trace := fl.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fl.StringVar(&cfg.outdir, "outdir", ".bench_build", "directory for temporary files and the span report")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.traced = *trace == 1
	if (*trace != 0 && *trace != 1) || cfg.seconds < 1 || fl.NArg() > 0 {
		fl.Usage()
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		logf("%s: %v", cfg.workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding the result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config) (result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return result{}, fmt.Errorf("unknown workload %q: want one of %q", cfg.workload, workloads)
	}
	logf("workload %s seed %d: nproc %d, GOMAXPROCS %d, %s", cfg.workload, cfg.seed,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	tmp := filepath.Join(cfg.outdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(tmp, cfg.workload+"-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	// Set up several times and keep the last: setup_s is the median,
	// so one slow set-up does not move it. A traced run does not report
	// setup_s and sets up once.
	reps := cfg.sizes.setups
	if cfg.traced {
		reps = 1
	}
	var w runner
	setups := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		w, err = setUp(cfg, dir)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	if cfg.traced {
		return tracedRun(cfg, w)
	}
	return measure(cfg, w, median(setups))
}

// setUp generates the workload's inputs from the seed and prepares it,
// warm-up included.
func setUp(cfg config, dir string) (runner, error) {
	sz := cfg.sizes
	switch cfg.workload {
	case "mix-import":
		raw, err := mixTrace(cfg.seed, sz.mixScale)
		if err != nil {
			return nil, err
		}
		return newBatch(raw, dir)
	case "synth-mine":
		raw, err := synthTrace(cfg.seed, sz.synthRounds)
		if err != nil {
			return nil, err
		}
		return newBatch(raw, dir)
	default: // serve-append
		raw, err := mixTrace(cfg.seed, sz.mixScale)
		if err != nil {
			return nil, err
		}
		live, err := splitTrace(raw)
		if err != nil {
			return nil, err
		}
		return newServe(cfg.seed, raw, live, "inode:ext4")
	}
}

// measure runs operations for cfg.seconds, and on until the workload is
// settled, and reports the end-to-end metrics.
func measure(cfg config, w runner, setupS float64) (result, error) {
	var samples []sample
	phase := time.Duration(cfg.seconds) * time.Second
	deadline := time.Now().Add(phase)
	// Waiting to settle may take at most another phase, so a workload
	// that cannot settle (say, every append fails) still ends.
	for now := time.Now(); len(samples) == 0 || now.Before(deadline) ||
		(!w.settled() && now.Before(deadline.Add(phase))); now = time.Now() {
		s, err := w.op(nil)
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s)
	}
	res := result{Attempted: len(samples)}
	var ingests, queries []float64
	var cpu time.Duration
	var alloc uint64
	for _, s := range samples {
		if s.failed {
			res.Failed++
		}
		cpu += s.cpu
		alloc += s.alloc
		if s.ingest > 0 {
			ingests = append(ingests, ms(s.ingest))
		}
		if s.query > 0 {
			queries = append(queries, ms(s.query))
		}
	}
	gateErr := w.finish()
	if gateErr != nil {
		res.Failed++
		logf("correctness gate: %v", gateErr)
	}
	res.Correct = res.Failed == 0
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	logf("%d operations (%d ingest, %d query), %d failed", len(samples), len(ingests), len(queries), res.Failed)
	if len(ingests) == 0 || len(queries) == 0 {
		return result{}, errors.New("the measured phase ran no ingest or no query operation; raise --seconds")
	}
	vals := map[string]float64{
		"setup_s":         setupS,
		"peak_rss_mb":     rss,
		"alloc_mb_per_op": float64(alloc) / 1e6 / float64(len(samples)),
		"cpu_ms_per_op":   ms(cpu) / float64(len(samples)),
		"ingest_ms_p50":   median(ingests),
		"query_ms_p50":    median(queries),
	}
	res.Metrics, err = named(endToEnd, vals)
	return res, err
}

// tracedRun probes every layer under spans, then alternates traced and
// untraced operations for cfg.seconds to price the tracing, and writes
// the span report.
func tracedRun(cfg config, w runner) (result, error) {
	in, err := w.inputs()
	if err != nil {
		return result{}, err
	}
	root := rootSpan("run")
	vals, err := probeLayers(root, in, cfg.seed, cfg.sizes.probeReps, cfg.sizes.handlerReqs)
	if err != nil {
		return result{}, err
	}
	res := result{}
	var plain, traced []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(plain) < cfg.sizes.minOverheadN || time.Now().Before(deadline) {
		// Alternate which side of a pair goes first.
		pair := len(plain)
		for i := 0; i < 2; i++ {
			var sp *span
			if (i+pair)%2 == 1 {
				sp = root.child("bench.op")
			}
			s, err := w.op(sp)
			sp.end()
			if err != nil {
				return result{}, err
			}
			res.Attempted++
			if s.failed {
				res.Failed++
			}
			if sp == nil {
				plain = append(plain, ms(s.total))
			} else {
				traced = append(traced, ms(s.total))
			}
		}
	}
	root.end()
	if err := w.finish(); err != nil {
		res.Failed++
		logf("correctness gate: %v", err)
	}
	res.Correct = res.Failed == 0
	up, tp := median(plain), median(traced)
	overhead := fmt.Sprintf("operation median %.3f ms untraced, %.3f ms traced (%d pairs): %+.2f%%",
		up, tp, len(plain), 100*(tp-up)/up)
	report := spanReport(root, overhead)
	os.Stderr.WriteString(report)
	path := filepath.Join(cfg.outdir, fmt.Sprintf("spans-%s-seed%d.txt", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		return result{}, err
	}
	logf("span report written to %s", path)
	res.Metrics, err = named(perLayer, vals)
	return res, err
}

// named attaches units to vals and insists that every defined metric,
// and nothing else, is present and finite.
func named(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is missing or not finite (%v)", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		extra := []string{}
		for name := range vals {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("undeclared metrics %q", extra)
	}
	return out, nil
}
