// Per-namespace serving state. Every tenant owns the full single-
// server machinery of the pre-namespace design: an appendable live
// store wrapped in a StreamDeriver, a published immutable
// Snapshot, an options-keyed derivation cache, its own generation and
// epoch counters, and (when configured) its own segment-store or
// checkpoint subdirectory. The Server holds these in the sharded
// registry and owns only what is genuinely global: admission control,
// metrics, the memory budgets, and the eviction policy.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"lockdoc/internal/analysis"
	"lockdoc/internal/checkpoint"
	"lockdoc/internal/core"
	"lockdoc/internal/db"
	"lockdoc/internal/resilience"
	"lockdoc/internal/segstore"
	"lockdoc/internal/trace"
)

type namespace struct {
	name string
	srv  *Server

	// snap is the published snapshot; nil before the first load and
	// again after an eviction. Request handlers read it without locks.
	snap  atomic.Pointer[Snapshot]
	cache *ruleCache

	// limiter is the per-namespace token bucket (nil = unlimited).
	// It sits behind the global limiter: a noisy tenant exhausts its
	// own bucket without draining everyone else's.
	limiter *resilience.TokenBucket

	// refs counts in-flight HTTP requests resolved to this namespace;
	// the evictor skips any namespace with live references. lastTouch
	// is a logical clock stamp (Server.touchClock) for LRU ordering.
	refs      atomic.Int64
	lastTouch atomic.Int64

	// mu serializes every mutation of the ingestion state — loads,
	// appends, store reopen, eviction — exactly like the old server-
	// wide loadMu, but per tenant: unrelated namespaces ingest
	// concurrently.
	mu    sync.Mutex
	live  *db.DB
	sd    *core.StreamDeriver
	gen   uint64
	epoch uint64

	// resident is the raw trace bytes charged to the server's budgets
	// for this namespace. Written under mu (via settleResident), read
	// lock-free by the per-namespace gauge and the evictor.
	resident atomic.Int64

	// Durability backends. storeOwned marks a store the server opened
	// itself under Config.StoreRoot — deletion then removes its
	// directory; a store handed in via Config.Store belongs to the
	// caller.
	ckpt       *checkpoint.Store
	store      *segstore.Store
	storeOwned bool

	nm *nsMetrics
}

// touch stamps the namespace as most-recently-used.
func (ns *namespace) touch() {
	ns.lastTouch.Store(ns.srv.touchClock.Add(1))
}

// snapshot returns the published snapshot or nil.
func (ns *namespace) snapshot() *Snapshot { return ns.snap.Load() }

// evicted reports whether the namespace currently holds no in-memory
// state but has a durable backend to re-open from.
func (ns *namespace) evictedState() bool {
	return ns.snap.Load() == nil && (ns.store != nil || ns.ckpt != nil)
}

// loadTrace ingests a full trace into a fresh live store and publishes
// it, replacing whatever the namespace held. See Server.LoadTrace for
// the durability ordering contract.
func (ns *namespace) loadTrace(r io.Reader, source string, persist bool) (*Snapshot, error) {
	s := ns.srv
	toCkpt := persist && ns.ckpt != nil
	toStore := persist && ns.store != nil
	var raw []byte
	if toCkpt || toStore {
		var err error
		raw, err = io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("server: reading %s: %w", source, err)
		}
		r = bytes.NewReader(raw)
	}
	counted := &countingReader{r: r}
	tr, err := trace.NewReaderOptions(counted, s.cfg.Ingest)
	if err != nil {
		return nil, fmt.Errorf("server: reading %s: %w", source, err)
	}

	ns.mu.Lock()
	defer ns.mu.Unlock()
	live := db.New(s.importConfig())
	// Ingest and derive in one pass: consume, seal, mine. The results
	// are adopted into the rule cache below.
	sd := core.NewStreamDeriver(live, s.streamOptions())
	if _, err := sd.Consume(tr); err != nil {
		return nil, fmt.Errorf("server: importing %s: %w", source, err)
	}
	view, results, _, err := sd.Derive(s.stopCtx)
	if err != nil {
		return nil, fmt.Errorf("server: deriving %s: %w", source, err)
	}
	// A lenient reader turns arbitrary garbage into an empty trace (it
	// resynchronizes right past the end). Publishing an all-empty
	// snapshot would silently blank the service, so insist on at least
	// one decoded access or observation group.
	if view.RawAccesses == 0 && len(view.Groups()) == 0 {
		return nil, fmt.Errorf("server: %s contains no decodable observations%s",
			source, degradedSuffix(view))
	}
	checks, err := analysis.CheckAll(view, s.rules)
	if err != nil {
		return nil, fmt.Errorf("server: checking %s: %w", source, err)
	}
	if toCkpt {
		// The trace is proven ingestible; make it durable before it
		// becomes visible. Reset is atomic (the old chain survives any
		// failure before its manifest swap), so a rejected load never
		// costs the previous chain.
		if err := s.checkpointWrite(func() error {
			_, werr := ns.ckpt.Reset(raw)
			return werr
		}); err != nil {
			return nil, fmt.Errorf("server: %s: %w", source, err)
		}
	}
	if toStore {
		// Same discipline for the segment store: the proven-ingestible
		// bytes become the new trace chain, and the sealed view is
		// compacted so the next reopen decodes state instead of
		// replaying. A failure between the two steps can leave the
		// store with the trace but no state — still consistent (reopen
		// replays the trace), just slower — but the load is rejected
		// and the served snapshot unchanged.
		if err := ns.store.ResetTrace(raw); err != nil {
			return nil, fmt.Errorf("server: %s: %w (%v)", source, ErrStoreWrite, err)
		}
		if err := ns.store.Compact(view); err != nil {
			return nil, fmt.Errorf("server: %s: %w (%v)", source, ErrStoreWrite, err)
		}
	}

	ns.gen++
	ns.epoch++
	snap := &Snapshot{
		Gen:      ns.gen,
		Epoch:    ns.epoch,
		DB:       view,
		Source:   source,
		LoadedAt: time.Now().UTC(),
		Checks:   checks,
	}
	ns.live = live
	ns.sd = sd
	ns.snap.Store(snap)
	ns.cache.reset()
	// The definitive pass already derived the default-options rules;
	// seed the query cache so the first /v1/rules request is a hit.
	ns.cache.adopt(sd.Options().Key(), results, snap.Gen, snap.Epoch)
	s.settleResident(ns, counted.n)
	s.m.reloads.Inc()
	return snap, nil
}

// appendTrace merges a continuation into the live store. See
// Server.AppendTrace for the contract.
func (ns *namespace) appendTrace(r io.Reader, source string, persist bool) (*Snapshot, AppendStats, error) {
	s := ns.srv
	var stats AppendStats
	toCkpt := persist && ns.ckpt != nil
	toStore := persist && ns.store != nil
	var raw []byte
	if toCkpt || toStore {
		var err error
		raw, err = io.ReadAll(r)
		if err != nil {
			return nil, stats, fmt.Errorf("server: reading %s: %w", source, err)
		}
		r = bytes.NewReader(raw)
	}
	counted := &countingReader{r: r}
	br := bufio.NewReaderSize(counted, 1<<16)
	head, _ := br.Peek(4)
	var tr *trace.Reader
	if trace.HasHeader(head) {
		var err error
		tr, err = trace.NewReaderOptions(br, s.cfg.Ingest)
		if err != nil {
			return nil, stats, fmt.Errorf("server: reading %s: %w", source, err)
		}
		if tr.Version() != trace.FormatV2 {
			return nil, stats, fmt.Errorf("server: cannot append a v%d trace: only v2 sync blocks support resumption", tr.Version())
		}
	} else {
		tr = trace.NewContinuationReader(br, s.cfg.Ingest)
	}

	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.live == nil {
		return nil, stats, ErrNoBaseSnapshot
	}
	if toCkpt {
		if err := s.checkpointWrite(func() error {
			_, werr := ns.ckpt.Append(raw)
			return werr
		}); err != nil {
			return nil, stats, fmt.Errorf("server: %s: %w", source, err)
		}
	}
	if toStore {
		// Store-before-consume, like the checkpoint: consuming can
		// stage partial per-context state even when it errors, and
		// replaying the stored bytes through this same path is
		// deterministic, so a recovered server reaches the pre-crash
		// state including rejected-chunk staging effects.
		if err := ns.store.AppendTrace(raw); err != nil {
			return nil, stats, fmt.Errorf("server: %s: %w (%v)", source, ErrStoreWrite, err)
		}
	}
	start := time.Now()
	prev := ns.snap.Load()
	n, err := ns.sd.Consume(tr)
	if err != nil {
		return nil, stats, fmt.Errorf("server: appending %s: %w", source, err)
	}
	if n == 0 {
		return nil, stats, fmt.Errorf("server: %s contains no decodable events", source)
	}
	view, results, sstats, err := ns.sd.Derive(s.stopCtx)
	if err != nil {
		// The snapshot stands and the deriver's cache is untouched;
		// consumed events stay staged like a consume error's would.
		return nil, stats, fmt.Errorf("server: deriving %s: %w", source, err)
	}
	checks, err := analysis.CheckAll(view, s.rules)
	if err != nil {
		return nil, stats, fmt.Errorf("server: checking %s: %w", source, err)
	}
	if toStore {
		// Compact before publishing so a restart reopens at this
		// generation. On failure the append is rejected like a consume
		// error — events stay staged in the live store, the trace
		// segments already hold the bytes, and the snapshot stands.
		if err := ns.store.Compact(view); err != nil {
			return nil, stats, fmt.Errorf("server: %s: %w (%v)", source, ErrStoreWrite, err)
		}
	}

	ns.gen++
	snap := &Snapshot{
		Gen:      ns.gen,
		Epoch:    ns.epoch,
		DB:       view,
		Source:   source,
		LoadedAt: time.Now().UTC(),
		Checks:   checks,
	}
	stats.Events = n
	stats.Dirty = view.DirtyGroupsSince(prev.DB)
	stats.Premined = sstats.Delta.Reused
	ns.snap.Store(snap)
	// The definitive pass of this append already holds the
	// default-options rules; publishing them into the query cache makes
	// the post-append /v1/rules refresh a pure cache hit.
	ns.cache.adopt(ns.sd.Options().Key(), results, snap.Gen, snap.Epoch)
	stats.Elapsed = time.Since(start)
	s.settleResident(ns, ns.resident.Load()+counted.n)
	s.m.appends.Inc()
	s.m.appendEvents.Add(uint64(n))
	s.m.groupsDirtied.Add(uint64(stats.Dirty))
	s.m.groupsPremined.Add(uint64(stats.Premined))
	s.m.appendNanos.Add(uint64(stats.Elapsed))
	return snap, stats, nil
}

// openStoreLocked republishes the namespace's segment store content —
// the fast path decodes the newest compacted state segment and groups
// hydrate lazily; with no usable state it falls back to replaying the
// trace segments. Returns (nil, nil) on an empty store. Caller holds
// ns.mu.
func (ns *namespace) openStoreLocked() (*Snapshot, error) {
	s := ns.srv
	if ns.store == nil {
		return nil, errors.New("server: no segment store configured")
	}
	view, ok, err := ns.store.LoadState()
	if err != nil {
		return nil, err
	}
	source := "store:" + ns.store.Dir()
	var live *db.DB
	var sd *core.StreamDeriver
	var replayResults []core.Result
	if !ok {
		if !ns.store.HasTrace() {
			return nil, nil
		}
		source = "store-replay:" + ns.store.Dir()
		tr := trace.NewContinuationReader(ns.store.TraceReader(), s.cfg.Ingest)
		live = db.New(s.importConfig())
		sd = core.NewStreamDeriver(live, s.streamOptions())
		if _, err := sd.Consume(tr); err != nil {
			return nil, fmt.Errorf("server: replaying store trace: %w", err)
		}
		var derr error
		if view, replayResults, _, derr = sd.Derive(s.stopCtx); derr != nil {
			return nil, fmt.Errorf("server: deriving store trace: %w", derr)
		}
		if view.RawAccesses == 0 && len(view.Groups()) == 0 {
			return nil, fmt.Errorf("server: store trace contains no decodable observations%s",
				degradedSuffix(view))
		}
		if err := ns.store.Compact(view); err != nil {
			return nil, fmt.Errorf("server: %w (%v)", ErrStoreWrite, err)
		}
	}
	checks, err := analysis.CheckAll(view, s.rules)
	if err != nil {
		return nil, fmt.Errorf("server: checking store state: %w", err)
	}
	ns.gen++
	ns.epoch++
	snap := &Snapshot{
		Gen:      ns.gen,
		Epoch:    ns.epoch,
		DB:       view,
		Source:   source,
		LoadedAt: time.Now().UTC(),
		Checks:   checks,
	}
	ns.live = live
	ns.sd = sd
	ns.snap.Store(snap)
	ns.cache.reset()
	if replayResults != nil {
		ns.cache.adopt(sd.Options().Key(), replayResults, snap.Gen, snap.Epoch)
	}
	// Resident accounting for a state-backed reopen is an estimate:
	// groups hydrate lazily from compressed blocks, so charge the
	// on-disk segment bytes rather than the (unknown until hydrated)
	// raw trace size. The replay path reads the real bytes but the
	// estimate stays consistent across both reopen flavours.
	var est int64
	for _, e := range ns.store.Manifest() {
		est += e.Size
	}
	s.settleResident(ns, est)
	s.m.reloads.Inc()
	return snap, nil
}

// recoverCheckpointLocked replays the namespace's checkpoint chain:
// the recovered Full head loads, each Append chunk appends, exactly as
// the original requests did. Replay never re-checkpoints (the bytes
// are already durable). A segment that errors during replay is logged
// and skipped: ingestion is deterministic, so it failed the same way
// before the crash and its staging effects are reproduced regardless.
// Returns the number of segments replayed cleanly. Must be called
// WITHOUT ns.mu held (the per-segment replays take it themselves).
func (ns *namespace) recoverCheckpoint() (int, error) {
	s := ns.srv
	if ns.ckpt == nil {
		return 0, nil
	}
	segs, discarded, err := ns.ckpt.Recover()
	if err != nil {
		return 0, fmt.Errorf("server: recovering checkpoint: %w", err)
	}
	if discarded > 0 && s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "lockdocd: checkpoint recovery discarded %d torn or damaged segment(s)\n", discarded)
	}
	replayed := 0
	for _, seg := range segs {
		source := "checkpoint/" + seg.Name
		var rerr error
		switch seg.Kind {
		case checkpoint.Full:
			_, rerr = ns.loadTrace(bytes.NewReader(seg.Data), source, false)
		case checkpoint.Append:
			_, _, rerr = ns.appendTrace(bytes.NewReader(seg.Data), source, false)
		}
		if rerr != nil {
			if s.cfg.Log != nil {
				fmt.Fprintf(s.cfg.Log, "lockdocd: replaying %s: %v\n", source, rerr)
			}
			continue
		}
		replayed++
	}
	return replayed, nil
}

// ensureOpen lazily re-hydrates an evicted namespace from its durable
// backend: the segment-store fast path when a store is configured,
// otherwise a checkpoint-chain replay. A namespace that was never
// loaded (no durable content) is left empty — the caller's
// snapshotOr503 answers as before. Safe to call concurrently; the
// first caller pays the reopen, the rest wait on ns.mu and find the
// published snapshot.
func (ns *namespace) ensureOpen() error {
	if ns.snap.Load() != nil {
		return nil
	}
	if ns.store != nil {
		ns.mu.Lock()
		if ns.snap.Load() != nil { // lost the race to another reopener
			ns.mu.Unlock()
			return nil
		}
		snap, err := ns.openStoreLocked()
		ns.mu.Unlock()
		if err != nil {
			return err
		}
		if snap != nil {
			ns.nm.reopens.Inc()
		}
		return nil
	}
	if ns.ckpt != nil {
		// Serialize the whole replay on a snapshot re-check so two
		// concurrent reopeners do not both replay the chain.
		ns.mu.Lock()
		replay := ns.snap.Load() == nil && ns.live == nil
		ns.mu.Unlock()
		if !replay {
			return nil
		}
		n, err := ns.recoverCheckpoint()
		if err != nil {
			return err
		}
		if n > 0 {
			ns.nm.reopens.Inc()
		}
	}
	return nil
}
