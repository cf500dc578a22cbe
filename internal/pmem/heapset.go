package pmem

import (
	"math/rand"
	"sync"
)

// HeapSet is an ordered set of independent heaps standing in for
// distinct NVRAM persistence domains — NUMA sockets or DIMM sets. Each
// member heap keeps its own root-slot space, statistics, journal and
// latency model (heaps may be constructed with different Configs, so a
// set can model asymmetric-NUMA topologies where one domain is slower
// than another), and its own crash schedule: ScheduleCrashAtAccess on
// one member arms a crash that fires on that heap's activity.
//
// The set shares one power supply: when any member crashes — via a
// scheduled access, CrashNow on the member, or CrashNow on the set —
// every member is marked crashed, so each thread observes the failure
// at its next simulated access on whichever heap it touches. This is
// the whole-system crash model multi-heap structures (internal/broker)
// recover from: FinalizeCrash and Restart apply per-line prefix
// semantics to every member.
//
// Fences remain per-thread *per-heap*: an SFENCE on one heap says
// nothing about NTStores or flushes outstanding on another. Structures
// spanning a set must fence every domain they wrote (see
// broker.Consumer.PollBatch), which is exactly why shard-placement
// affinity matters for fence cost.
type HeapSet struct {
	heaps []*Heap
}

// NewSetOf assembles a set from existing heaps, which must be distinct
// (two headers over the same simulator state would crash twice and
// alias root slots). Call before concurrent activity begins: it links
// the members' crash propagation. The same heaps may be re-wrapped
// later (e.g. by a recovery procedure) while the system is quiescent.
func NewSetOf(heaps ...*Heap) *HeapSet {
	if len(heaps) == 0 {
		panic("pmem: NewSetOf requires at least one heap")
	}
	group := make([]*heapState, len(heaps))
	for i, h := range heaps {
		for j := 0; j < i; j++ {
			if heaps[j].heapState == h.heapState {
				panic("pmem: duplicate heap in set")
			}
		}
		group[i] = h.heapState
	}
	for _, h := range heaps {
		h.crashGroup = group
	}
	return &HeapSet{heaps: append([]*Heap(nil), heaps...)}
}

// NewSet creates n fresh heaps with the same configuration and
// assembles them into a set. For asymmetric topologies build the heaps
// individually and use NewSetOf.
func NewSet(n int, cfg Config) *HeapSet {
	heaps := make([]*Heap, n)
	for i := range heaps {
		heaps[i] = New(cfg)
	}
	return NewSetOf(heaps...)
}

// Len reports the number of member heaps.
func (s *HeapSet) Len() int { return len(s.heaps) }

// Heap returns member i.
func (s *HeapSet) Heap(i int) *Heap { return s.heaps[i] }

// Heaps returns the members in order (a copy).
func (s *HeapSet) Heaps() []*Heap { return append([]*Heap(nil), s.heaps...) }

// Parallel runs f once per member heap, concurrently, and returns when
// every call has: members are independent simulators with their own
// per-thread state, so the same tid may operate on each at once. A
// panic on a child goroutine is one no caller can recover, so every
// child recovers whatever it raises, and after the join the caller
// re-raises the first panic in member order that is not the crash
// signal, unchanged; if every child that panicked was stopped by the
// simulated crash, the caller raises the crash signal, for its Protect.
// A one-member set runs f inline.
func (s *HeapSet) Parallel(f func(i int, h *Heap)) {
	if len(s.heaps) == 1 {
		f(0, s.heaps[0])
		return
	}
	panics := make([]any, len(s.heaps))
	var wg sync.WaitGroup
	for i, h := range s.heaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			f(i, h)
		}()
	}
	wg.Wait()
	crashed := false
	for _, p := range panics {
		switch p.(type) {
		case nil:
		case crashSignal:
			crashed = true
		default:
			panic(p)
		}
	}
	if crashed {
		panic(crashSignal{})
	}
}

// Crashed reports whether any member has crashed (propagation marks
// all members, so after any crash this is true for the whole set).
func (s *HeapSet) Crashed() bool {
	for _, h := range s.heaps {
		if h.Crashed() {
			return true
		}
	}
	return false
}

// CrashNow pulls the plug on the whole set: every member is marked
// crashed and every subsequent simulated access on any member panics
// with the crash signal (catch it with Protect). ModeCrash only.
func (s *HeapSet) CrashNow() {
	for _, h := range s.heaps {
		if !h.Crashed() {
			h.CrashNow()
		}
	}
}

// FinalizeCrash materializes every member's NVRAM image at the crash
// point (see Heap.FinalizeCrash). Members that had not observed the
// crash yet are crashed first — the power loss hits all domains
// together. Must be called after all worker goroutines have stopped.
func (s *HeapSet) FinalizeCrash(rng *rand.Rand) {
	for _, h := range s.heaps {
		if !h.Crashed() {
			h.CrashNow()
		}
		h.FinalizeCrash(rng)
	}
}

// Restart reboots every member (see Heap.Restart): each ModeCrash
// member reloads the lines its open journals hold from their bases, the
// lines' NVRAM image, and all volatile simulator state is discarded.
func (s *HeapSet) Restart() {
	for _, h := range s.heaps {
		h.Restart()
	}
}

// TotalStats sums the event counters of all threads across all member
// heaps (see the quiescence contract in stats.go).
func (s *HeapSet) TotalStats() Stats {
	var t Stats
	for _, h := range s.heaps {
		t.Add(h.TotalStats())
	}
	return t
}

// StatsOf sums tid's counters across all member heaps (a thread that
// operates on several domains accumulates events on each).
func (s *HeapSet) StatsOf(tid int) Stats {
	var t Stats
	for _, h := range s.heaps {
		t.Add(h.StatsOf(tid))
	}
	return t
}

// ResetStats zeroes every member's per-thread counters.
func (s *HeapSet) ResetStats() {
	for _, h := range s.heaps {
		h.ResetStats()
	}
}
