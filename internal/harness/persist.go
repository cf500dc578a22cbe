package harness

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/pmem"
	"repro/internal/queues"
)

// PersistOps is how many of each operation MeasureOps times.
const PersistOps = 1000

// OpCosts is one queue's persist traffic over PersistOps enqueues,
// PersistOps successful dequeues and PersistOps failing dequeues, run
// alone in steady state.
type OpCosts struct{ Enq, Deq, Empty pmem.Stats }

// MeasureOps runs in single-threaded on a fresh heap: a warmup that
// leaves no allocator area to create during the measurement, then each
// phase in turn.
func MeasureOps(in queues.Info) OpCosts {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, MaxThreads: 2})
	q := in.New(h, 1)
	for i := 0; i < 300; i++ {
		q.Enqueue(0, uint64(i))
	}
	for i := 0; i < 300; i++ {
		q.Dequeue(0)
	}
	q.Dequeue(0)
	var c OpCosts
	base := h.TotalStats()
	for i := 0; i < PersistOps; i++ {
		q.Enqueue(0, uint64(i))
	}
	s1 := h.TotalStats()
	for i := 0; i < PersistOps; i++ {
		q.Dequeue(0)
	}
	s2 := h.TotalStats()
	for i := 0; i < PersistOps; i++ {
		q.Dequeue(0)
	}
	c.Enq, c.Deq, c.Empty = s1.Sub(base), s2.Sub(s1), h.TotalStats().Sub(s2)
	return c
}

// Row is the queue's line of cmd/fencecount's table: fences, flushes,
// NTStores and post-flush accesses per enqueue, dequeue and failing
// dequeue, to two decimals.
func (c OpCosts) Row(name string) string {
	cell := func(s pmem.Stats) string {
		per := func(n uint64) float64 { return float64(n) / PersistOps }
		return fmt.Sprintf("%5.2f %5.2f %4.2f %6.2f", per(s.Fences), per(s.Flushes), per(s.NTStores), per(s.PostFlushAccesses))
	}
	return fmt.Sprintf("%-26s %31s  %31s  %31s", name, cell(c.Enq), cell(c.Deq), cell(c.Empty))
}

// CheckPersistRow measures the named queue and returns an error unless
// its Row equals the row of that name in the table at golden (the
// checked-in output of cmd/fencecount) and its fence and NTStore counts
// are whole numbers of hundredths per operation, so the row's two
// decimals state them exactly. (Flush and post-flush counts may be off
// by one at a phase's edge, so their cells are rounded.)
func CheckPersistRow(golden, name string) error {
	in, ok := LookupQueue(name)
	if !ok {
		return fmt.Errorf("no queue %q", name)
	}
	table, err := os.ReadFile(golden)
	if err != nil {
		return err
	}
	c := MeasureOps(in)
	got := c.Row(name)
	for _, s := range []pmem.Stats{c.Enq, c.Deq, c.Empty} {
		for _, n := range []uint64{s.Fences, s.NTStores} {
			if n%(PersistOps/100) != 0 {
				return fmt.Errorf("%s: a count of %d over %d operations is not exact at two decimals:\n%s", name, n, PersistOps, got)
			}
		}
	}
	for _, line := range strings.Split(string(table), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			if line != got {
				return fmt.Errorf("%s's row of %s:\nwant %s\ngot  %s", name, golden, line, got)
			}
			return nil
		}
	}
	return fmt.Errorf("%s has no row for %s; measured:\n%s", golden, name, got)
}
