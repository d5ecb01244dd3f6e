package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lockdoc/internal/db"
	"lockdoc/internal/obs"
)

// engineBenchGroup builds a deep-nesting observation group straight in
// the store (no trace round trip): nOrders distinct acquisition orders
// of depth locks drawn from a pool of poolSize, the factorial worst
// case of Sec. 5.4.
func engineBenchGroup(depth, poolSize, nOrders int) (*db.DB, *db.ObsGroup) {
	rng := rand.New(rand.NewSource(17))
	d := db.New(db.Config{})
	seqs := make(map[string]uint64, nOrders)
	for i := 0; i < nOrders; i++ {
		perm := rng.Perm(poolSize)[:depth]
		sig := ""
		for j, l := range perm {
			if j > 0 {
				sig += ","
			}
			sig += fmt.Sprintf("b%02d", l)
		}
		seqs[sig] += uint64(1 + rng.Intn(4))
	}
	return d, buildGroup(d, seqs)
}

// BenchmarkDeriveEngine compares the two hypothesis engines on the same
// deep-nesting group, so the old-vs-new numbers in BENCH_derive.json
// can be regenerated from a single binary: "reference" is the
// map-of-signatures enumerator kept as the test oracle, "trie" the
// projected-DFS miner (with and without threshold pruning). The two
// "trie/full+obs" variants pin the observability overhead budget
// (<= 3%, EXPERIMENTS.md): "nilmetrics" is the default uninstrumented
// path, "metrics" records per-group latency/trie instruments into a
// live registry that is never dumped (the no-op sink configuration).
// "trie/permuted" mines one group shaped like the synthetic wide-lock
// trace's: 120 random orders of 4 of a 5-lock pool, so many sequences
// share few lock multisets.
func BenchmarkDeriveEngine(b *testing.B) {
	d, g := engineBenchGroup(7, 10, 12)
	pd, pg := engineBenchGroup(4, 5, 120)
	ctx := context.Background()
	deriveCtx := func(d *db.DB, g *db.ObsGroup, opt Options) Result {
		return Derive(ctx, d, g, opt)
	}
	obsOpt := Options{AcceptThreshold: 0.9, Metrics: NewMetrics(obs.NewRegistry())}
	for _, c := range []struct {
		name   string
		derive func(*db.DB, *db.ObsGroup, Options) Result
		d      *db.DB
		g      *db.ObsGroup
		opt    Options
	}{
		{"reference", deriveReference, d, g, Options{AcceptThreshold: 0.9}},
		{"trie/full", deriveCtx, d, g, Options{AcceptThreshold: 0.9}},
		{"trie/full+obs=metrics", deriveCtx, d, g, obsOpt},
		{"trie/cutoff=0.1", deriveCtx, d, g, Options{AcceptThreshold: 0.9, CutoffThreshold: 0.1}},
		{"trie/permuted", deriveCtx, pd, pg, Options{AcceptThreshold: 0.9}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.derive(c.d, c.g, c.opt)
			}
		})
	}
}
