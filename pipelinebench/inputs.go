package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"

	"lockdoc/internal/trace"
	"lockdoc/internal/workload"
)

// mixTrace runs the simulated kernel's benchmark mix (the evaluation
// setup of lockdoc-trace and lockdoc-report) and returns the v2 trace.
func mixTrace(seed int64, scale int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	if _, err := workload.Run(w, workload.Options{Seed: seed, Scale: scale, PreemptEvery: 97}); err != nil {
		return nil, fmt.Errorf("running the kernel mix: %w", err)
	}
	return buf.Bytes(), nil
}

// Shape of the synthetic wide-lock trace: every critical section holds
// four of its type's five spinlocks in a random order, so each
// observation group sees many distinct lock sequences and the miner,
// not the importer, dominates a pass.
const (
	synthTypes       = 48
	synthMembers     = 8
	synthLocksPerTyp = 5
	synthHeld        = 4
)

// synthTrace encodes `rounds` rounds of one critical section per
// synthetic type (48 types x 8 members, 768 observation groups).
func synthTrace(seed int64, rounds int) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	seq := uint64(0)
	emit := func(ev trace.Event) {
		seq++
		ev.Seq, ev.TS = seq, seq
		_ = w.Write(&ev) // a write error sticks in w.Err, checked below
	}
	for t := 0; t < synthTypes; t++ {
		id := uint32(t + 1)
		members := make([]trace.MemberDef, synthMembers)
		for m := range members {
			members[m] = trace.MemberDef{Name: fmt.Sprintf("f%d", m), Offset: uint32(m * 8), Size: 8}
		}
		emit(trace.Event{Kind: trace.KindDefType, TypeID: id, TypeName: fmt.Sprintf("synth%02d", t), Members: members})
		emit(trace.Event{Kind: trace.KindAlloc, Ctx: 1, AllocID: uint64(id), TypeID: id,
			Addr: uint64(id) << 16, Size: synthMembers * 8})
		for l := 0; l < synthLocksPerTyp; l++ {
			lid := uint64(t*synthLocksPerTyp + l + 1)
			emit(trace.Event{Kind: trace.KindDefLock, LockID: lid,
				LockName: fmt.Sprintf("lk%02d_%d", t, l), Class: trace.LockSpin, LockAddr: 0x1000000 + lid*8})
		}
	}
	for r := 0; r < rounds; r++ {
		for t := 0; t < synthTypes; t++ {
			base := uint64(t * synthLocksPerTyp)
			order := rng.Perm(synthLocksPerTyp)[:synthHeld]
			for _, l := range order {
				emit(trace.Event{Kind: trace.KindAcquire, Ctx: 1, LockID: base + uint64(l) + 1})
			}
			addr := uint64(t+1) << 16
			for m := 0; m < synthMembers; m++ {
				kind := trace.KindWrite
				if rng.Intn(2) == 0 {
					kind = trace.KindRead
				}
				emit(trace.Event{Kind: kind, Ctx: 1, Addr: addr + uint64(m*8), AccessSize: 8})
			}
			for _, l := range order {
				emit(trace.Event{Kind: trace.KindRelease, Ctx: 1, LockID: base + uint64(l) + 1})
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("encoding the synthetic trace: %w", err)
	}
	return buf.Bytes(), nil
}

// blockEnds returns the offset just past each sync block of the v2
// trace raw, in order. raw[:ends[i]] is a complete headered trace, and
// raw[ends[i]:ends[j]] a block continuation, which is how a tail
// follower cuts a growing trace for lockdocd append uploads.
func blockEnds(raw []byte) ([]int, error) {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if r.Version() != trace.FormatV2 {
		return nil, fmt.Errorf("trace is v%d; only v2 has sync blocks", r.Version())
	}
	var ends []int
	var ev trace.Event
	seen := uint64(0)
	for {
		err := r.Read(&ev)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if b := r.Blocks(); b != seen {
			seen = b
			ends = append(ends, int(r.LastBlockEnd()))
		}
	}
	return ends, nil
}

// split is a trace cut the way lockdocd append mode sees it: a
// headered base of the first half of the sync blocks, followed by
// continuation chunks of appendBlocks blocks each.
type split struct {
	raw  []byte
	ends []int
	half int // blocks in the base
}

// appendBlocks is how many sync blocks one append carries.
const appendBlocks = 4

func splitTrace(raw []byte) (split, error) {
	ends, err := blockEnds(raw)
	if err != nil {
		return split{}, err
	}
	if len(ends) < 2+2*appendBlocks {
		return split{}, fmt.Errorf("trace has %d sync blocks; need at least %d", len(ends), 2+2*appendBlocks)
	}
	return split{raw: raw, ends: ends, half: len(ends) / 2}, nil
}

func (s split) base() []byte { return s.raw[:s.ends[s.half-1]] }

// chunks returns how many whole append chunks the tail holds.
func (s split) chunks() int { return (len(s.ends) - s.half) / appendBlocks }

// chunk returns the i-th continuation chunk after the base.
func (s split) chunk(i int) []byte {
	from := s.half + i*appendBlocks
	return s.raw[s.ends[from-1]:s.ends[from+appendBlocks-1]]
}

// prefix returns the headered trace of the base plus the first n chunks.
func (s split) prefix(n int) []byte {
	return s.raw[:s.ends[s.half+n*appendBlocks-1]]
}
