package db

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lockdoc/internal/trace"
)

// TestSealMidTransactionKeepsMemoPerStore: a view sealed in the middle
// of a transaction interns keys into its own copy of the key table —
// here the open transaction's embedded lock plus a key only the view
// knows — and the live store, which keeps consuming, hands out the same
// key IDs to different keys. Its memoized key IDs must stay its own:
// the finished live store has to equal a batch import that never
// sealed.
func TestSealMidTransactionKeepsMemoPerStore(t *testing.T) {
	script := func(f *feeder, mid func()) {
		f.defType(1, "obj",
			trace.MemberDef{Name: "a", Offset: 0, Size: 8},
			trace.MemberDef{Name: "b", Offset: 8, Size: 8},
			trace.MemberDef{Name: "lock", Offset: 16, Size: 8, IsLock: true})
		f.defFunc(1, "obj.c", 1, "op")
		f.defStack(1, 1)
		f.alloc(1, 1, 1, 0x1000, 24, "")
		f.alloc(1, 2, 1, 0x2000, 24, "")
		f.defLock(1, "lock", trace.LockSpin, 0x1010, 0x1000)
		f.defLock(2, "glock", trace.LockMutex, 0x90, 0)
		// Context 1 opens a transaction under the embedded lock; no key
		// has been interned anywhere yet.
		f.acquire(1, 1)
		f.write(1, 0x1000, 1, 1)
		f.write(1, 0x2008, 1, 1)
		if mid != nil {
			mid()
		}
		// The live store now interns the global lock first, taking the
		// ID the view gave the embedded lock.
		f.acquire(2, 2)
		f.read(2, 0x1008, 1, 1)
		f.release(2, 2)
		f.release(1, 1) // closes context 1's transaction
		f.acquire(1, 1)
		f.write(1, 0x1000, 1, 1)
		f.read(1, 0x2000, 1, 1)
		f.release(1, 1)
	}

	batch := newFeeder(t, Config{})
	script(batch, nil)
	batch.db.Flush()
	want := fingerprint(t, batch.db)

	live := newFeeder(t, Config{})
	var view *DB
	script(live, func() {
		view = live.db.Seal()
		view.InternKey(LockKey{Kind: Global, Name: "view_only"})
	})
	if got := fingerprint(t, live.db.Seal()); got != want {
		t.Fatalf("live store diverged from batch after a mid-transaction seal:\n%s\nwant:\n%s", got, want)
	}
	if id, ok := view.KeyByString("ES(lock in obj)"); !ok || id != 0 {
		t.Fatalf("view key ES(lock in obj) = %d, %v; want 0, true", id, ok)
	}
	if _, ok := live.db.KeyByString("view_only"); ok {
		t.Fatal("a key interned on the view leaked into the live store")
	}
}

// wordMap is the reference address resolver: one map entry per 8-byte
// word, the last claim wins and a free clears only the words its
// allocation still owns.
type wordMap map[uint64]*Allocation

func (m wordMap) insert(a *Allocation) {
	for off := uint64(0); off < uint64(a.Size); off += 8 {
		m[a.Addr+off] = a
	}
}

func (m wordMap) remove(a *Allocation) {
	for off := uint64(0); off < uint64(a.Size); off += 8 {
		if m[a.Addr+off] == a {
			delete(m, a.Addr+off)
		}
	}
}

// TestAddrIndexMatchesWordMap drives the interval index and the word
// map through random allocation churn — overlapping, exactly reused,
// unaligned, empty and address-space-wrapping ranges, frees in any
// order — and requires every lookup to agree.
func TestAddrIndexMatchesWordMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x addrIndex
	ref := wordMap{}
	var live []*Allocation
	var freed []*Allocation
	id := uint64(0)
	newAlloc := func() *Allocation {
		id++
		a := &Allocation{ID: id, Size: uint32(rng.Intn(6)) * 8}
		switch rng.Intn(10) {
		case 0: // exact reuse of a freed range
			if len(freed) > 0 {
				f := freed[rng.Intn(len(freed))]
				a.Addr, a.Size = f.Addr, f.Size
				return a
			}
		case 1: // unaligned
			a.Addr = 0x1000 + uint64(rng.Intn(512))
			return a
		case 2: // wraps past the top of the address space
			a.Addr = ^uint64(0) - 7 - 8*uint64(rng.Intn(3))
			return a
		case 3:
			a.Size += uint32(rng.Intn(8)) // not a multiple of 8
		}
		a.Addr = 0x1000 + 8*uint64(rng.Intn(64))
		return a
	}
	probe := func(step int) {
		for i := 0; i < 32; i++ {
			addr := 0x1000 + uint64(rng.Intn(600))
			if i%8 == 0 {
				addr = uint64(rng.Intn(32)) - 16 // around the wrap point
			}
			if got, want := x.lookup(addr), ref[addr&^7]; got != want {
				t.Fatalf("step %d: lookup(%#x) = %v, want %v", step, addr, got, want)
			}
		}
	}
	for step := 0; step < 5000; step++ {
		if len(live) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(live))
			a := live[i]
			live = append(live[:i], live[i+1:]...)
			x.remove(a)
			ref.remove(a)
			freed = append(freed, a)
		} else {
			a := newAlloc()
			x.insert(a)
			ref.insert(a)
			live = append(live, a)
		}
		probe(step)
	}
	for i := 1; i < len(x.spans); i++ {
		if x.spans[i-1].last >= x.spans[i].lo {
			t.Fatalf("spans %d and %d overlap: %+v %+v", i-1, i, x.spans[i-1], x.spans[i])
		}
	}
}

// TestLargeTransactionFolding: a transaction touching more
// (allocation, member) pairs than the pending scan covers switches to
// the hashed index mid-transaction and must still fold every repeat
// access into its pair's one observation.
func TestLargeTransactionFolding(t *testing.T) {
	const objs = 3 * pendScanMax
	f := newFeeder(t, Config{})
	f.defType(1, "obj", trace.MemberDef{Name: "a", Offset: 0, Size: 8}, trace.MemberDef{Name: "b", Offset: 8, Size: 8})
	f.defLock(1, "glock", trace.LockSpin, 0x90, 0)
	for i := uint64(0); i < objs; i++ {
		f.alloc(1, i+1, 1, 0x1000+0x100*i, 16, "")
	}
	for round := 0; round < 2; round++ {
		f.acquire(1, 1)
		for rep := 0; rep < 3; rep++ {
			for i := uint64(0); i < objs; i++ {
				f.write(1, 0x1000+0x100*i, 1, 1)
				f.read(1, 0x1008+0x100*i, 1, 1)
			}
		}
		f.read(1, 0x1000, 1, 1) // write-over-read folds this into a's write
		f.release(1, 1)
	}
	f.db.Flush()
	if f.db.Transactions != 2 {
		t.Fatalf("Transactions = %d, want 2", f.db.Transactions)
	}
	for _, c := range []struct {
		member string
		write  bool
		events uint64
	}{{"a", true, 2 * (3*objs + 1)}, {"b", false, 2 * 3 * objs}} {
		g, ok := f.db.Group("obj", "", c.member, c.write)
		if !ok {
			t.Fatalf("group %s missing", c.member)
		}
		if g.Total != 2*objs || g.EventSum != c.events || len(g.Seqs) != 1 {
			t.Fatalf("group %s: total %d events %d seqs %d, want %d/%d/1",
				c.member, g.Total, g.EventSum, len(g.Seqs), 2*objs, c.events)
		}
	}
}

// TestSealedLookupsMatchScan: a sealed view answers Group, GroupMerged
// and KeyByString from its lookup index, a live store by scanning; both
// must agree on every name, and concurrent first lookups on one view
// (lockdocd's readers) must build the index once, race-free.
func TestSealedLookupsMatchScan(t *testing.T) {
	f := newFeeder(t, Config{SubclassedTypes: []string{"inode"}})
	f.defType(1, "inode",
		trace.MemberDef{Name: "i_state", Offset: 0, Size: 8},
		trace.MemberDef{Name: "i_size", Offset: 8, Size: 8},
		trace.MemberDef{Name: "i_lock", Offset: 16, Size: 8, IsLock: true})
	f.defType(2, "dentry", trace.MemberDef{Name: "d_flags", Offset: 0, Size: 8})
	f.defFunc(1, "fs/inode.c", 10, "op")
	f.defStack(1, 1)
	f.alloc(1, 1, 1, 0x1000, 24, "ext4")
	f.alloc(1, 2, 1, 0x2000, 24, "proc")
	f.alloc(1, 3, 2, 0x3000, 8, "")
	f.defLock(1, "i_lock", trace.LockSpin, 0x1010, 0x1000)
	f.defLock(2, "i_lock", trace.LockSpin, 0x2010, 0x2000)
	f.defLock(3, "rename_lock", trace.LockSeq, 0x100, 0)
	for _, lock := range []uint64{1, 2, 3} {
		f.acquire(1, lock)
		for _, addr := range []uint64{0x1000, 0x1008, 0x2000, 0x3000} {
			f.write(1, addr, 1, 1)
			f.read(2, addr+8*uint64(lock%2), 1, 1)
		}
		f.release(1, lock)
	}
	f.db.Flush()
	live := f.db
	view := live.Seal()

	type query struct {
		typ, sub, member string
		write            bool
	}
	var queries []query
	for _, g := range live.Groups() {
		queries = append(queries,
			query{g.Type.Name, g.Key.Subclass, g.MemberName(), g.Key.Write},
			query{g.Type.Name, "", g.MemberName(), g.Key.Write})
	}
	queries = append(queries, query{"inode", "xfs", "i_state", true}, query{"inode", "", "i_nope", false})
	keys := []string{"ES(i_lock in inode)", "EO(i_lock in inode)", "rename_lock", "nope"}
	describe := func(d *DB) string {
		var b strings.Builder
		for _, q := range queries {
			for _, lookup := range []func(string, string, string, bool) (*ObsGroup, bool){d.Group, d.GroupMerged} {
				g, ok := lookup(q.typ, q.sub, q.member, q.write)
				if ok {
					fmt.Fprintf(&b, "%v %s total=%d events=%d seqs=%d\n", q, g.TypeLabel(), g.Total, g.EventSum, len(g.Seqs))
				} else {
					fmt.Fprintf(&b, "%v missing\n", q)
				}
			}
		}
		for _, k := range keys {
			id, ok := d.KeyByString(k)
			fmt.Fprintf(&b, "%s %d %v\n", k, id, ok)
		}
		return b.String()
	}
	want := describe(live)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = describe(view)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("reader %d: sealed view lookups differ from the live scan:\n%s\nwant:\n%s", i, g, want)
		}
	}
}
