package repro

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/pmem"
)

// The five Figure-2 panels and the three ablations have one driver,
// harness.Run behind cmd/durbench (-workload, -queues, -ablations,
// -no-invalidate). What is left here is the one timing nothing else
// has: recovery, per baseline queue, ordered as in the paper's legend.
var benchQueues = []string{
	"opt-unlinked", "opt-linked", "unlinked", "linked",
	"durable-msq", "izraelevitz", "nvtraverse", "onefile", "redoopt",
}

const benchHeap = 192 << 20

// BenchmarkRecovery measures post-crash recovery of a queue holding
// 50k items (after 100k enqueues and 50k dequeues).
func BenchmarkRecovery(b *testing.B) {
	for _, name := range benchQueues {
		in, _ := harness.LookupQueue(name)
		if in.Recover == nil {
			continue
		}
		b.Run(name, func(b *testing.B) {
			h := pmem.New(pmem.Config{Bytes: benchHeap, Mode: pmem.ModePerf, MaxThreads: 3})
			q := in.New(h, 2)
			for i := 0; i < 100_000; i++ {
				q.Enqueue(0, uint64(i)+1)
			}
			for i := 0; i < 50_000; i++ {
				q.Dequeue(1)
			}
			// Everything durable is in the working view; recovering
			// from it is equivalent to a crash in which every line
			// was evicted.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.Recover(h, 2)
			}
		})
	}
}
