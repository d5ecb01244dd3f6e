package db

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"lockdoc/internal/trace"
)

// Config controls filtering during import, mirroring the paper's black
// lists (Sec. 5.3).
type Config struct {
	// FuncBlacklist lists function names whose dynamic extent is
	// filtered: accesses with any black-listed function on the call
	// stack are dropped. The paper uses this for object initialization
	// and teardown code and for atomic helper functions.
	FuncBlacklist []string

	// MemberBlacklist maps a type name to member names that are out of
	// scope for the experiments.
	MemberBlacklist map[string][]string

	// SubclassedTypes lists types whose observations are split by the
	// allocation subclass (the paper subclasses struct inode by
	// filesystem).
	SubclassedTypes []string

	// NoWriteOverRead disables the write-over-read folding rule
	// (Sec. 4.2): transactions containing both reads and writes of a
	// member then contribute a read AND a write observation. Only used
	// by the WoR ablation benchmark.
	NoWriteOverRead bool

	// Lenient tolerates the damage a resynchronized (or fuzzed) trace
	// leaves behind instead of aborting the import: events of unknown
	// kinds are skipped (forward compatibility), allocations of
	// undefined types and frees of undefined allocations are counted
	// and dropped rather than misattributed. Every drop is surfaced in
	// the import-statistics counters.
	Lenient bool

	// Metrics, when non-nil, receives consume/seal instrument updates
	// (see Metrics). It never changes store behaviour.
	Metrics *Metrics
}

// DB is the populated store.
type DB struct {
	Types  map[uint32]*DataType
	Locks  map[uint64]*LockInfo
	Funcs  map[uint32]*Func
	Ctxs   map[uint32]*CtxInfo
	Stacks map[uint32][]uint32
	Allocs map[uint64]*Allocation

	keys   []LockKey
	keyIDs map[LockKey]KeyID
	// keyIDsShared marks keyIDs as borrowed from another store (Seal
	// shares the live map with the view it builds); intern clones it
	// before the first post-share insert.
	keyIDsShared bool
	groups       map[GroupKey]*ObsGroup
	subbed       map[string]bool
	blFuncs      map[string]bool
	blMembs      map[string]map[string]bool

	// Import statistics.
	RawAccesses      uint64 // memory-access events seen
	FilteredAccesses uint64 // dropped by any filter
	Transactions     uint64 // distinct transaction instances with >= 1 access
	UnresolvedAddrs  uint64 // accesses outside any live allocation
	CrossCtxRelease  uint64 // releases of locks not held by the releasing context

	// Degraded-mode statistics: what a lenient import counted and
	// dropped, plus the corruption the reader recovered from.
	UnknownKindEvents uint64 // events of kinds this build does not know
	DroppedAllocs     uint64 // allocations referencing undefined types
	DroppedFrees      uint64 // frees of undefined allocations
	UnknownLockOps    uint64 // acquires of undefined locks
	OpenAtEOF         uint64 // transactions left open and finalized at end of trace
	Corruptions       []trace.CorruptionReport
	BytesSkipped      int64 // trace bytes the reader discarded during resync

	// internal streaming state
	addrs       addrIndex // live allocations by address range
	ctxState    map[uint32]*ctxState
	lastCtxID   uint32
	lastCtx     *ctxState       // ctxState[lastCtxID], nil before the first lookup
	stackBlMemo map[uint32]int8 // stackID -> -1 not blacklisted / 1 blacklisted
	topBlMemo   map[uint32]int8 // stack-0 verdicts by innermost FuncID, same values
	freePend    []*pendObs      // recycled pending observations
	noWoR       bool
	lenient     bool
	metrics     *Metrics
	gen         uint64 // current generation; advanced by Seal
	sealed      bool   // read-only view produced by Seal

	// Interning memos of the live store. KeyIDs index this store's own
	// key table, which a sealed view copies on write and extends with
	// IDs the live store may later hand out differently, so the memos
	// belong to one *DB: views and decoded stores leave them nil and
	// intern directly.
	keyMemo map[*LockInfo][3]KeyID // lock -> 1 + key ID per relation (Global, ES, EO); 0 unset
	seqMemo map[seqMemoKey]seqMemo // deduplicated key IDs -> sequence

	// Lazy-materialization state for stores decoded from a state
	// snapshot (see state.go): src pulls a stub group's observations on
	// first use, srcIdx maps each stub to its directory index, and
	// hydrateMu serializes materialization across parallel derivation
	// workers.
	src        GroupSource
	srcIdx     map[*ObsGroup]int
	hydrateMu  sync.Mutex
	hydrateErr error

	lookup lookupIndex // sealed views only; see lookup.go
}

// ctxState tracks per-execution-context transaction reconstruction.
type ctxState struct {
	held []heldLock
	// pending holds the open transaction's observations, sorted at
	// flush. Most transactions touch a handful of members, so lookup
	// scans it; index takes over once a transaction outgrows
	// pendScanMax.
	pending []*pendObs
	index   map[pendKey]*pendObs
}

// pendScanMax is the pending-observation count up to which lookup
// scans instead of hashing.
const pendScanMax = 16

// find returns the pending observation of (allocation, member), if any.
func (cs *ctxState) find(k pendKey) *pendObs {
	if len(cs.pending) > pendScanMax {
		return cs.index[k]
	}
	for _, po := range cs.pending {
		if po.alloc.ID == k.alloc && po.member == k.member {
			return po
		}
	}
	return nil
}

// add appends a new pending observation under key k.
func (cs *ctxState) add(k pendKey, po *pendObs) {
	cs.pending = append(cs.pending, po)
	switch n := len(cs.pending); {
	case n == pendScanMax+1:
		if cs.index == nil {
			cs.index = make(map[pendKey]*pendObs)
		}
		for _, p := range cs.pending {
			cs.index[pendKey{alloc: p.alloc.ID, member: p.member}] = p
		}
	case n > pendScanMax+1:
		cs.index[k] = po
	}
}

type heldLock struct {
	lock   *LockInfo
	reader bool
}

type pendKey struct {
	alloc  uint64
	member int
}

// pendObs folds one (allocation, member) pair of an open transaction.
// The per-context event counts are short slices: a member is touched
// from one or two code locations per transaction, so a linear scan
// beats hashing, and a recycled pendObs keeps its capacity.
type pendObs struct {
	alloc     *Allocation
	member    int
	reads     uint64
	writes    uint64
	readCtxs  []ctxCount
	writeCtxs []ctxCount
}

type ctxCount struct {
	ctx AccessCtx
	n   uint64
}

// countCtx adds one event of context c to counts.
func countCtx(counts []ctxCount, c AccessCtx) []ctxCount {
	for i := range counts {
		if counts[i].ctx == c {
			counts[i].n++
			return counts
		}
	}
	return append(counts, ctxCount{ctx: c, n: 1})
}

// comparePend orders pending observations by (allocation, member), the
// commit order that keeps lock-key interning deterministic.
func comparePend(a, b *pendObs) int {
	if c := cmp.Compare(a.alloc.ID, b.alloc.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.member, b.member)
}

// New creates an empty store with the given filter configuration.
func New(cfg Config) *DB {
	db := &DB{
		Types:       make(map[uint32]*DataType),
		Locks:       make(map[uint64]*LockInfo),
		Funcs:       make(map[uint32]*Func),
		Ctxs:        make(map[uint32]*CtxInfo),
		Stacks:      make(map[uint32][]uint32),
		Allocs:      make(map[uint64]*Allocation),
		keyIDs:      make(map[LockKey]KeyID),
		groups:      make(map[GroupKey]*ObsGroup),
		subbed:      make(map[string]bool),
		blFuncs:     make(map[string]bool),
		blMembs:     make(map[string]map[string]bool),
		ctxState:    make(map[uint32]*ctxState),
		stackBlMemo: make(map[uint32]int8),
		topBlMemo:   make(map[uint32]int8),
		keyMemo:     make(map[*LockInfo][3]KeyID),
		seqMemo:     make(map[seqMemoKey]seqMemo),
	}
	for _, f := range cfg.FuncBlacklist {
		db.blFuncs[f] = true
	}
	for ty, ms := range cfg.MemberBlacklist {
		set := make(map[string]bool, len(ms))
		for _, m := range ms {
			set[m] = true
		}
		db.blMembs[ty] = set
	}
	for _, t := range cfg.SubclassedTypes {
		db.subbed[t] = true
	}
	db.noWoR = cfg.NoWriteOverRead
	db.lenient = cfg.Lenient
	db.metrics = cfg.Metrics
	db.gen = 1
	return db
}

// Import streams the whole trace from r into the store. Any corruption
// the reader recovered from (lenient reader mode) is copied into the
// store's Corruptions/BytesSkipped statistics.
func Import(r *trace.Reader, cfg Config) (*DB, error) {
	db := New(cfg)
	if _, err := db.Consume(r); err != nil {
		return nil, err
	}
	db.Flush()
	return db, nil
}

// Consume streams every remaining event of r into the store WITHOUT
// finalizing open transactions, so a later Consume of a continuation of
// the same logical trace resumes reconstruction exactly where this call
// stopped: per-context held-lock stacks and pending folded accesses
// carry over. Corruption the reader recovered from is folded into the
// store's counters. It returns the number of events applied.
//
// The store's merged state after consuming chunks c1..cn is identical
// to consuming their concatenation in one call; Flush (or Seal) then
// yields the same observations a batch Import of the concatenated trace
// would.
func (db *DB) Consume(r *trace.Reader) (int, error) {
	if db.sealed {
		return 0, errSealed
	}
	start := time.Now()
	n := 0
	var ev trace.Event
	for {
		err := r.Read(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("db: import: %w", err)
		}
		if err := db.Add(&ev); err != nil {
			return n, err
		}
		n++
	}
	db.Corruptions = append(db.Corruptions, r.Corruptions()...)
	db.BytesSkipped += r.BytesSkipped()
	db.metrics.consume(start, n)
	return n, nil
}

var errSealed = fmt.Errorf("db: store is a sealed read-only view")

// Add processes a single event. Events must arrive in trace order.
func (db *DB) Add(ev *trace.Event) error {
	if db.sealed {
		return errSealed
	}
	switch ev.Kind {
	case trace.KindDefType:
		t := &DataType{
			ID: ev.TypeID, Name: ev.TypeName,
			Members:  append([]trace.MemberDef(nil), ev.Members...),
			byOffset: make(map[uint32]int, len(ev.Members)),
		}
		for i, m := range t.Members {
			t.byOffset[m.Offset] = i
		}
		db.Types[t.ID] = t
	case trace.KindDefLock:
		li := &LockInfo{ID: ev.LockID, Name: ev.LockName, Class: ev.Class}
		if ev.OwnerAddr != 0 {
			if owner := db.resolve(ev.OwnerAddr); owner != nil {
				li.OwnerID = owner.ID
				li.OwnerType = owner.Type.Name
			}
		}
		db.Locks[li.ID] = li
	case trace.KindDefFunc:
		db.Funcs[ev.FuncID] = &Func{ID: ev.FuncID, File: ev.File, Line: ev.Line, Name: ev.Func}
	case trace.KindDefCtx:
		db.Ctxs[ev.CtxID] = &CtxInfo{ID: ev.CtxID, Kind: ev.CtxKind, Name: ev.CtxName}
	case trace.KindDefStack:
		db.Stacks[ev.StackID] = append([]uint32(nil), ev.StackFuncs...)
	case trace.KindAlloc:
		ty, ok := db.Types[ev.TypeID]
		if !ok {
			if db.lenient {
				db.DroppedAllocs++
				return nil
			}
			return fmt.Errorf("db: alloc %d references unknown type %d", ev.AllocID, ev.TypeID)
		}
		a := &Allocation{
			ID: ev.AllocID, Type: ty, Subclass: ev.Subclass,
			Addr: ev.Addr, Size: ev.Size, Live: true,
		}
		db.Allocs[a.ID] = a
		db.addrs.insert(a)
	case trace.KindFree:
		a := db.Allocs[ev.AllocID]
		if a == nil {
			if db.lenient {
				db.DroppedFrees++
				return nil
			}
			return fmt.Errorf("db: free of unknown allocation %d", ev.AllocID)
		}
		a.Live = false
		db.addrs.remove(a)
	case trace.KindAcquire:
		cs := db.ctx(ev.Ctx)
		db.flushCtx(cs)
		if li, ok := db.Locks[ev.LockID]; ok {
			cs.held = append(cs.held, heldLock{lock: li, reader: ev.Reader})
		} else {
			db.UnknownLockOps++
		}
	case trace.KindRelease:
		cs := db.ctx(ev.Ctx)
		db.flushCtx(cs)
		found := false
		for i := len(cs.held) - 1; i >= 0; i-- {
			if cs.held[i].lock.ID == ev.LockID {
				cs.held = append(cs.held[:i], cs.held[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			db.CrossCtxRelease++
		}
	case trace.KindRead, trace.KindWrite:
		db.RawAccesses++
		db.access(ev)
	case trace.KindFuncEnter, trace.KindFuncExit, trace.KindCoverage:
		// Not needed for rule derivation; coverage is computed online by
		// the kernel layer.
	default:
		// Forward compatibility: a future (or fuzzed) producer may emit
		// kinds this build does not know. Skip and count them.
		db.UnknownKindEvents++
	}
	return nil
}

// Flush commits all pending folded observations. Call once after the
// last event: a transaction a truncated trace left open is finalized
// here and counted in OpenAtEOF. Contexts flush in ascending ID order
// so lock-key interning (and with it every KeyID-derived signature) is
// deterministic regardless of map iteration.
func (db *DB) Flush() {
	for _, id := range sortedCtxIDs(db.ctxState) {
		cs := db.ctxState[id]
		if len(cs.pending) > 0 {
			db.OpenAtEOF++
		}
		db.flushCtx(cs)
	}
}

// sortedCtxIDs returns the context IDs of state in ascending order.
func sortedCtxIDs(state map[uint32]*ctxState) []uint32 {
	return slices.Sorted(maps.Keys(state))
}

// DroppedEvents sums everything a lenient import skipped rather than
// misattributed.
func (db *DB) DroppedEvents() uint64 {
	return db.UnknownKindEvents + db.DroppedAllocs + db.DroppedFrees
}

// DegradedSummary renders the degraded-mode counters for human
// consumption; it returns "" for a perfectly clean import.
func (db *DB) DegradedSummary() string {
	if len(db.Corruptions) == 0 && db.DroppedEvents() == 0 && db.UnknownLockOps == 0 {
		return ""
	}
	return fmt.Sprintf(
		"recovered from %d trace corruption(s), %d bytes skipped; "+
			"dropped %d unknown-kind event(s), %d alloc(s) of undefined types, %d free(s) of undefined allocations; "+
			"%d acquire(s) of undefined locks; %d transaction(s) finalized at EOF",
		len(db.Corruptions), db.BytesSkipped,
		db.UnknownKindEvents, db.DroppedAllocs, db.DroppedFrees,
		db.UnknownLockOps, db.OpenAtEOF)
}

func (db *DB) ctx(id uint32) *ctxState {
	if cs := db.lastCtx; cs != nil && db.lastCtxID == id {
		return cs // events of one context come in runs
	}
	cs := db.ctxState[id]
	if cs == nil {
		cs = &ctxState{}
		db.ctxState[id] = cs
	}
	db.lastCtxID, db.lastCtx = id, cs
	return cs
}

// resolve maps an address to the live allocation containing it.
func (db *DB) resolve(addr uint64) *Allocation {
	return db.addrs.lookup(addr)
}

// stackBlacklisted reports whether any frame of the stack is
// black-listed, memoized per stack ID. An access without an interned
// stack (stack 0) is also black-listed when its innermost function is,
// so its verdict is memoized per innermost function instead.
func (db *DB) stackBlacklisted(stackID uint32, innermost uint32) bool {
	memo, key := db.stackBlMemo, stackID
	if stackID == 0 {
		memo, key = db.topBlMemo, innermost
	}
	if v, ok := memo[key]; ok {
		return v > 0
	}
	bl := false
	for _, fid := range db.Stacks[stackID] {
		if f := db.Funcs[fid]; f != nil && db.blFuncs[f.Name] {
			bl = true
			break
		}
	}
	if !bl && stackID == 0 { // top-level access without interned stack
		if f := db.Funcs[innermost]; f != nil && db.blFuncs[f.Name] {
			bl = true
		}
	}
	v := int8(-1)
	if bl {
		v = 1
	}
	memo[key] = v
	return bl
}

func (db *DB) access(ev *trace.Event) {
	a := db.resolve(ev.Addr)
	if a == nil {
		db.UnresolvedAddrs++
		db.FilteredAccesses++
		return
	}
	off := uint32(ev.Addr - a.Addr)
	mi, ok := a.Type.MemberAt(off)
	if !ok {
		// Interior access (e.g. into a sub-word); attribute to the
		// covering member by scanning backwards.
		mi = -1
		for i, m := range a.Type.Members {
			if m.Offset <= off && off < m.Offset+m.Size {
				mi = i
				break
			}
		}
		if mi < 0 {
			db.UnresolvedAddrs++
			db.FilteredAccesses++
			return
		}
	}
	md := &a.Type.Members[mi]
	if md.Atomic || md.IsLock {
		db.FilteredAccesses++
		return
	}
	if set := db.blMembs[a.Type.Name]; set != nil && set[md.Name] {
		db.FilteredAccesses++
		return
	}
	if db.stackBlacklisted(ev.StackID, ev.FuncID) {
		db.FilteredAccesses++
		return
	}

	cs := db.ctx(ev.Ctx)
	pk := pendKey{alloc: a.ID, member: mi}
	po := cs.find(pk)
	if po == nil {
		po = db.newPend(a, mi)
		cs.add(pk, po)
	}
	actx := AccessCtx{FuncID: ev.FuncID, StackID: ev.StackID}
	if ev.Kind == trace.KindWrite {
		po.writes++
		po.writeCtxs = countCtx(po.writeCtxs, actx)
	} else {
		po.reads++
		po.readCtxs = countCtx(po.readCtxs, actx)
	}
}

// newPend returns an empty pending observation, recycled when possible.
func (db *DB) newPend(a *Allocation, member int) *pendObs {
	n := len(db.freePend)
	if n == 0 {
		return &pendObs{alloc: a, member: member}
	}
	po := db.freePend[n-1]
	db.freePend = db.freePend[:n-1]
	*po = pendObs{alloc: a, member: member, readCtxs: po.readCtxs[:0], writeCtxs: po.writeCtxs[:0]}
	return po
}

// flushCtx commits the pending folded observations of one context. It is
// called whenever the context's held-lock set changes (which ends the
// current transaction) and at end of trace. Observations commit in
// sorted (allocation, member) order: commit interns lock keys, and a
// fixed order keeps KeyID assignment — and everything downstream that
// sorts by sequence signature — deterministic.
func (db *DB) flushCtx(cs *ctxState) {
	if len(cs.pending) == 0 {
		return
	}
	db.Transactions++
	slices.SortFunc(cs.pending, comparePend)
	db.commitTxn(cs.held, cs.pending)
	indexed := len(cs.pending) > pendScanMax
	for i, po := range cs.pending {
		if indexed {
			delete(cs.index, pendKey{alloc: po.alloc.ID, member: po.member})
		}
		db.freePend = append(db.freePend, po)
		cs.pending[i] = nil
	}
	cs.pending = cs.pending[:0]
}

// commitTxn commits the pending observations of one transaction, in
// the given (sorted) order, under its held-lock list. It leaves the
// observations untouched, so Seal can preview the live store's open
// transactions on a view.
//
// Every observation of a transaction shares the held locks; only an
// allocation that embeds one of them sees a different sequence (an ES
// key instead of EO). So the sequence of the first allocation owning
// none of the locks serves all such allocations, and consecutive
// observations of one allocation share theirs. Sequences are still
// resolved in commit order, so lock keys intern in exactly the order a
// per-observation lookup would intern them.
func (db *DB) commitTxn(held []heldLock, list []*pendObs) {
	var last *Allocation
	var cur, foreign seqMemo
	haveForeign := false
	for _, po := range list {
		if po.alloc != last {
			last = po.alloc
			if owns := ownsAny(held, last); owns || !haveForeign {
				cur.seq, cur.sig = db.seqFor(held, last)
				if !owns {
					foreign, haveForeign = cur, true
				}
			} else {
				cur = foreign
			}
		}
		db.commitObs(po, cur.seq, cur.sig)
	}
}

// ownsAny reports whether a embeds any of the held locks (an ES
// relation in lockKeyID; owner 0 marks a global lock).
func ownsAny(held []heldLock, a *Allocation) bool {
	for _, h := range held {
		if h.lock.OwnerID != 0 && h.lock.OwnerID == a.ID {
			return true
		}
	}
	return false
}

// commitObs folds one pending observation into the store under the
// lock sequence of its transaction.
func (db *DB) commitObs(po *pendObs, seq LockSeq, sig string) {
	if db.noWoR {
		// Ablation mode: keep reads and writes as separate
		// observations.
		if po.reads > 0 {
			db.commit(po.alloc, po.member, false, seq, sig, po.reads, po.readCtxs, nil)
		}
		if po.writes > 0 {
			db.commit(po.alloc, po.member, true, seq, sig, po.writes, po.writeCtxs, nil)
		}
		return
	}
	// Write-over-read: a transaction containing both treats the
	// folded observation as a write (Sec. 4.2).
	if po.writes > 0 {
		db.commit(po.alloc, po.member, true, seq, sig, po.reads+po.writes, po.writeCtxs, po.readCtxs)
	} else {
		db.commit(po.alloc, po.member, false, seq, sig, po.reads, po.readCtxs, nil)
	}
}

// maxMemoLocks bounds the held-lock depth whose sequences seqMemo
// caches; deeper nesting is interned directly.
const maxMemoLocks = 8

// seqMemoKey is a deduplicated key-ID sequence in comparable form.
type seqMemoKey struct {
	n   uint8
	ids [maxMemoLocks]KeyID
}

type seqMemo struct {
	seq LockSeq
	sig string
}

// seqFor maps the held-lock list to lock keys relative to the accessed
// allocation, collapsing duplicate keys (keeping first acquisition),
// and returns the sequence with its Signature. Held lists are short,
// so dedup is a linear scan rather than a map. On the live store both
// the per-lock key IDs and the resulting sequences are memoized: the
// same few held sets recur across the whole trace, so a transaction
// commit costs no interning, no string building and no allocation.
// Memoized sequences are shared and must not be mutated.
func (db *DB) seqFor(held []heldLock, a *Allocation) (LockSeq, string) {
	if len(held) == 0 {
		return nil, ""
	}
	var k seqMemoKey
	ids := k.ids[:0]
	memo := db.seqMemo != nil && len(held) <= maxMemoLocks
	if !memo {
		ids = make([]KeyID, 0, len(held))
	}
	for _, h := range held {
		if id := db.lockKeyID(h.lock, a); !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	if memo {
		k.n = uint8(len(ids))
		if m, ok := db.seqMemo[k]; ok {
			return m.seq, m.sig
		}
	}
	seq := LockSeq(slices.Clone(ids))
	sig := seq.Signature()
	if memo {
		db.seqMemo[k] = seqMemo{seq: seq, sig: sig}
	}
	return seq, sig
}

// lockKeyID interns the key of li relative to the accessed allocation.
func (db *DB) lockKeyID(li *LockInfo, a *Allocation) KeyID {
	kind := EO
	switch li.OwnerID {
	case 0:
		kind = Global
	case a.ID:
		kind = ES
	}
	if db.keyMemo == nil {
		return db.intern(keyFor(li, kind))
	}
	ids := db.keyMemo[li]
	if ids[kind] == 0 {
		ids[kind] = db.intern(keyFor(li, kind)) + 1
		db.keyMemo[li] = ids
	}
	return ids[kind] - 1
}

func keyFor(li *LockInfo, kind LockKind) LockKey {
	if kind == Global {
		return LockKey{Kind: Global, Class: li.Class, Name: li.Name}
	}
	return LockKey{Kind: kind, Class: li.Class, Name: li.Name, OwnerType: li.OwnerType}
}

func (db *DB) intern(k LockKey) KeyID {
	if id, ok := db.keyIDs[k]; ok {
		return id
	}
	if db.keyIDsShared || db.keyIDs == nil {
		// The map is borrowed (Seal shares the live table with the view
		// during finalization) or was dropped after finalization; build
		// a private copy from the key slice before the first insert.
		m := make(map[LockKey]KeyID, len(db.keys)+1)
		for i, kk := range db.keys {
			m[kk] = KeyID(i)
		}
		db.keyIDs = m
		db.keyIDsShared = false
	}
	id := KeyID(len(db.keys))
	db.keys = append(db.keys, k)
	db.keyIDs[k] = id
	return id
}

// Key returns the interned LockKey for a KeyID.
func (db *DB) Key(id KeyID) LockKey { return db.keys[id] }

// InternKey interns a key (used by the checker for documented rules that
// reference locks never observed).
func (db *DB) InternKey(k LockKey) KeyID { return db.intern(k) }

// SeqString renders a lock sequence in the paper's arrow notation;
// the empty sequence renders as "no locks". Report and documentation
// generation call this once per hypothesis, so the whole sequence is
// rendered into a single exactly sized allocation.
func (db *DB) SeqString(seq LockSeq) string {
	if len(seq) == 0 {
		return "no locks"
	}
	n := len(" -> ") * (len(seq) - 1)
	for _, id := range seq {
		n += db.Key(id).renderLen()
	}
	var b strings.Builder
	b.Grow(n)
	for i, id := range seq {
		if i > 0 {
			b.WriteString(" -> ")
		}
		db.Key(id).appendString(&b)
	}
	return b.String()
}

func joinArrow(parts []string) string {
	out := parts[0]
	for _, p := range parts[1:] {
		out += " -> " + p
	}
	return out
}

// commit merges one folded observation into its group. The raw events
// are attributed to their access contexts from both count slices.
func (db *DB) commit(a *Allocation, member int, write bool, seq LockSeq, sig string, events uint64, ctxs, more []ctxCount) {
	sub := ""
	if db.subbed[a.Type.Name] {
		sub = a.Subclass
	}
	gk := GroupKey{TypeID: a.Type.ID, Subclass: sub, Member: member, Write: write}
	g := db.groups[gk]
	if g == nil {
		g = &ObsGroup{Key: gk, Type: a.Type, Seqs: make(map[string]*SeqObs)}
		db.groups[gk] = g
	} else if g.shared {
		// Copy-on-write: the group is visible through a sealed view, so
		// merge into a private clone and leave the view's copy frozen.
		g = g.clone()
		db.groups[gk] = g
	}
	g.Gen = db.gen
	so := g.Seqs[sig]
	if so == nil {
		so = &SeqObs{Seq: seq, Contexts: make(map[AccessCtx]uint64)}
		g.Seqs[sig] = so
	}
	so.Count++
	so.Events += events
	for _, c := range ctxs {
		so.Contexts[c.ctx] += c.n
	}
	for _, c := range more {
		so.Contexts[c.ctx] += c.n
	}
	g.Total++
	g.EventSum += events
}

// Groups returns all observation groups in a stable order (by type name,
// subclass, member index, then writes before reads).
func (db *DB) Groups() []*ObsGroup {
	out := make([]*ObsGroup, 0, len(db.groups))
	for _, g := range db.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Type.Name != b.Type.Name {
			return a.Type.Name < b.Type.Name
		}
		if a.Key.Subclass != b.Key.Subclass {
			return a.Key.Subclass < b.Key.Subclass
		}
		if a.Key.Member != b.Key.Member {
			return a.Key.Member < b.Key.Member
		}
		return a.Key.Write && !b.Key.Write
	})
	return out
}

// Group looks up one observation group.
func (db *DB) Group(typeName, subclass, member string, write bool) (*ObsGroup, bool) {
	for _, g := range db.named(typeName, member, write) {
		if g.Key.Subclass == subclass {
			db.hydrateForLookup(g)
			return g, true
		}
	}
	return nil, false
}

// GroupMerged resolves a group like Group, but when subclass is empty
// and the type is subclassed it merges the observations of every
// subclass into one synthetic group. The locking-rule checker validates
// documentation written for the plain type ("struct inode") against all
// subclass observations this way.
func (db *DB) GroupMerged(typeName, subclass, member string, write bool) (*ObsGroup, bool) {
	if g, ok := db.Group(typeName, subclass, member, write); ok {
		return g, true
	}
	if subclass != "" {
		return nil, false
	}
	var merged *ObsGroup
	for _, g := range db.named(typeName, member, write) {
		db.hydrateForLookup(g)
		if merged == nil {
			merged = &ObsGroup{
				Key:  GroupKey{TypeID: g.Key.TypeID, Member: g.Key.Member, Write: write},
				Type: g.Type, Seqs: make(map[string]*SeqObs),
			}
		}
		for sig, so := range g.Seqs {
			m := merged.Seqs[sig]
			if m == nil {
				m = &SeqObs{Seq: so.Seq, Contexts: make(map[AccessCtx]uint64)}
				merged.Seqs[sig] = m
			}
			m.Count += so.Count
			m.Events += so.Events
			for c, n := range so.Contexts {
				m.Contexts[c] += n
			}
		}
		merged.Total += g.Total
		merged.EventSum += g.EventSum
	}
	if merged == nil {
		return nil, false
	}
	return merged, true
}

// TypeLabels returns the distinct type labels (type or type:subclass)
// present in the observation groups, sorted.
func (db *DB) TypeLabels() []string {
	set := make(map[string]bool)
	for _, g := range db.groups {
		set[g.TypeLabel()] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// BlacklistedMembers counts the members of t that the import filters
// drop: atomic members, lock members, and explicitly black-listed ones
// (column #Bl of the paper's Tab. 6).
func (db *DB) BlacklistedMembers(t *DataType) int {
	set := db.blMembs[t.Name]
	n := 0
	for _, m := range t.Members {
		if m.Atomic || m.IsLock || (set != nil && set[m.Name]) {
			n++
		}
	}
	return n
}

// FuncLocation renders "file:line" for a function ID.
func (db *DB) FuncLocation(id uint32) string {
	f := db.Funcs[id]
	if f == nil {
		return "?"
	}
	return fmt.Sprintf("%s:%d", f.File, f.Line)
}

// StackTrace renders the interned stack as a call chain.
func (db *DB) StackTrace(stackID uint32) string {
	frames := db.Stacks[stackID]
	parts := make([]string, 0, len(frames))
	for _, fid := range frames {
		if f := db.Funcs[fid]; f != nil {
			parts = append(parts, f.Name)
		}
	}
	if len(parts) == 0 {
		return "(no stack)"
	}
	return joinArrow(parts)
}
