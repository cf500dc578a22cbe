package pmem

// Statistics quiescence contract
//
// Every statistics counter in this package is a plain per-thread
// integer bumped by the owning goroutine with no synchronization —
// that is what keeps accounting free on the simulated access path.
// The single contract for every reader (StatsOf, TotalStats, DeltaOf,
// ResetStats, on Heap and HeapSet alike) follows from that: a
// snapshot is EXACT when the threads it covers are quiescent — no
// goroutine is inside a simulated memory operation, and the caller
// happens-after their last one (a Wait on them suffices). Read while
// threads are running, a snapshot is a benign torn view: useful for
// progress monitoring, wrong for assertions. Tests and benchmarks
// must only assert on counters across a quiescent point.

// Stats counts the simulated memory events of one thread (or, via
// TotalStats, of all threads). The counters of interest for the
// paper's analysis are Fences (blocking persist operations), Flushes,
// NTStores and PostFlushAccesses (accesses to explicitly flushed
// content, the quantity the second amendment drives to zero).
// DrainLines counts the lines queued on the write-pending queue: one
// per flushed line and per NTStore, and one per NTStoreLine however
// many words it stores (InitRange prices its lines' drain without
// queueing them).
type Stats struct {
	Loads             uint64
	Stores            uint64
	CASes             uint64
	DCASes            uint64
	Flushes           uint64
	Fences            uint64
	NTStores          uint64
	PostFlushAccesses uint64
	DrainLines        uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.CASes += o.CASes
	s.DCASes += o.DCASes
	s.Flushes += o.Flushes
	s.Fences += o.Fences
	s.NTStores += o.NTStores
	s.PostFlushAccesses += o.PostFlushAccesses
	s.DrainLines += o.DrainLines
}

// Sub returns s - o field-wise; useful for deltas around a measured
// region.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Loads:             s.Loads - o.Loads,
		Stores:            s.Stores - o.Stores,
		CASes:             s.CASes - o.CASes,
		DCASes:            s.DCASes - o.DCASes,
		Flushes:           s.Flushes - o.Flushes,
		Fences:            s.Fences - o.Fences,
		NTStores:          s.NTStores - o.NTStores,
		PostFlushAccesses: s.PostFlushAccesses - o.PostFlushAccesses,
		DrainLines:        s.DrainLines - o.DrainLines,
	}
}

// StatsOf returns a snapshot of tid's counters (see the quiescence
// contract above).
func (h *Heap) StatsOf(tid int) Stats { return h.threads[tid].stats }

// TotalStats sums the counters of all threads.
func (h *Heap) TotalStats() Stats {
	var t Stats
	for i := range h.threads {
		t.Add(h.threads[i].stats)
	}
	return t
}

// ResetStats zeroes all per-thread counters.
func (h *Heap) ResetStats() {
	for i := range h.threads {
		h.threads[i].stats = Stats{}
	}
}

// StatsDelta brackets a measured region: capture it with DeltaOf (or
// TotalDelta) before the region, run the workload, then read Delta
// across a quiescent point for the events the region cost. It replaces
// the before/after Sub dance measurement code otherwise hand-rolls.
type StatsDelta struct {
	read func() Stats
	base Stats
}

// Delta returns the events counted since the delta was captured.
func (d StatsDelta) Delta() Stats { return d.read().Sub(d.base) }

// DeltaOf starts measuring tid's events on this heap from now.
func (h *Heap) DeltaOf(tid int) StatsDelta {
	read := func() Stats { return h.StatsOf(tid) }
	return StatsDelta{read: read, base: read()}
}

// TotalDelta starts measuring all threads' events on this heap from
// now.
func (h *Heap) TotalDelta() StatsDelta {
	return StatsDelta{read: h.TotalStats, base: h.TotalStats()}
}

// DeltaOf starts measuring tid's events across all member heaps from
// now.
func (s *HeapSet) DeltaOf(tid int) StatsDelta {
	read := func() Stats { return s.StatsOf(tid) }
	return StatsDelta{read: read, base: read()}
}

// TotalDelta starts measuring all threads' events across all member
// heaps from now.
func (s *HeapSet) TotalDelta() StatsDelta {
	return StatsDelta{read: s.TotalStats, base: s.TotalStats()}
}
