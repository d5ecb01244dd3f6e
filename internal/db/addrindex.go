package db

import (
	"slices"
	"sort"
)

// addrIndex resolves raw access addresses to live allocations. It is a
// sorted slice of disjoint, word-granular address ranges: each range
// remembers the allocation that last claimed it, or nil once that
// allocation was freed.
//
// Resolution works on 8-byte words (an access resolves through
// addr&^7), and an allocation claims the words Addr, Addr+8, ... below
// Addr+Size. The last claim of a word wins; freeing an allocation
// releases only the words it still owns, so a stale free never unmaps a
// newer allocation. An allocation at an address that is not word
// aligned claims no word any lookup can reach and is therefore not
// indexed at all.
//
// Freed ranges stay in the slice with a nil owner. Slab-style reuse —
// the next allocation lands on exactly the range of a freed one — then
// refills that entry in place, so the steady state of an
// allocate/free workload is a binary search per event and no copying.
// Freed entries are dropped in one sweep once the frees since the last
// sweep outnumber half the slice, which keeps the index proportional to
// the live allocations at amortized O(1) per free. A last-hit hint answers the common run of
// accesses to one object without the search.
type addrIndex struct {
	spans []addrSpan
	hint  int
	dead  int // frees since the last sweep
}

// addrSpan covers the words lo, lo+8, ..., last (inclusive bounds, so a
// range may end at the top of the address space).
type addrSpan struct {
	lo, last uint64
	a        *Allocation
}

// lookup returns the allocation owning the word containing addr.
func (x *addrIndex) lookup(addr uint64) *Allocation {
	w := addr &^ 7
	if h := x.hint; h < len(x.spans) {
		if s := &x.spans[h]; s.lo <= w && w <= s.last {
			return s.a
		}
	}
	i := x.search(w)
	if i == len(x.spans) || x.spans[i].lo > w {
		return nil
	}
	x.hint = i
	return x.spans[i].a
}

// search returns the index of the first span ending at or after w.
func (x *addrIndex) search(w uint64) int {
	return sort.Search(len(x.spans), func(i int) bool { return x.spans[i].last >= w })
}

// insert makes a the owner of every word it covers.
func (x *addrIndex) insert(a *Allocation) {
	wordRanges(a, func(lo, last uint64) { x.claim(lo, last, a) })
}

// remove releases the words a still owns.
func (x *addrIndex) remove(a *Allocation) {
	wordRanges(a, func(lo, last uint64) {
		for i := x.search(lo); i < len(x.spans) && x.spans[i].lo <= last; i++ {
			if x.spans[i].a == a {
				x.spans[i].a = nil
				x.dead++
			}
		}
	})
	if x.dead > 64 && 2*x.dead > len(x.spans) {
		x.spans = slices.DeleteFunc(x.spans, func(s addrSpan) bool { return s.a == nil })
		x.dead = 0
	}
}

// claim assigns the words lo..last to a, trimming whatever ranges
// overlapped them.
func (x *addrIndex) claim(lo, last uint64, a *Allocation) {
	i := x.search(lo)
	if i < len(x.spans) && x.spans[i].lo == lo && x.spans[i].last == last {
		x.spans[i].a = a // exact reuse of a freed (or live) range
		return
	}
	j := i
	for j < len(x.spans) && x.spans[j].lo <= last {
		j++
	}
	var buf [3]addrSpan
	repl := buf[:0]
	if i < j && x.spans[i].lo < lo {
		repl = append(repl, addrSpan{lo: x.spans[i].lo, last: lo - 8, a: x.spans[i].a})
	}
	repl = append(repl, addrSpan{lo: lo, last: last, a: a})
	if i < j && x.spans[j-1].last > last {
		repl = append(repl, addrSpan{lo: last + 8, last: x.spans[j-1].last, a: x.spans[j-1].a})
	}
	x.spans = slices.Replace(x.spans, i, j, repl...)
}

// wordRanges calls fn with the inclusive word range(s) a covers: none
// for an empty or unaligned allocation, two when the range wraps past
// the top of the address space.
func wordRanges(a *Allocation, fn func(lo, last uint64)) {
	if a.Size == 0 || a.Addr&7 != 0 {
		return
	}
	last := a.Addr + 8*(uint64(a.Size-1)/8)
	if last < a.Addr {
		fn(a.Addr, ^uint64(7))
		fn(0, last)
		return
	}
	fn(a.Addr, last)
}
