package main

import (
	"repro/internal/harness"
	"repro/internal/pmem"
	"repro/internal/queues"
)

// pairsQueue is one of the two queues paper-pairs alternates: its own
// heap, prefilled to the paper's initial size at full speed, and the
// FIFO check that follows it through the run.
type pairsQueue struct {
	q        queues.Queue
	h        *pmem.Heap
	key      uint64
	enq, deq uint64
}

const pairsInitialSize = 10

func newPairsQueue(name string, key uint64) *pairsQueue {
	info, ok := harness.LookupQueue(name)
	if !ok {
		panic("benchmark: unknown queue " + name)
	}
	p := &pairsQueue{key: key}
	p.h = pmem.New(pmem.Config{Bytes: pairsHeapBytes, MaxThreads: 1})
	p.q = info.New(p.h, 1)
	for ; p.enq < pairsInitialSize; p.enq++ {
		p.q.Enqueue(0, mix64(key+p.enq))
	}
	p.h.SetLatency(pmem.DefaultLatency())
	return p
}

// pairs runs n Figure-2 enqueue/dequeue pairs on one tid; timed files
// every call's latency, which the throughput rounds leave out because
// a clock read costs a tenth of an operation here.
func (p *pairsQueue) pairs(b *bench, n int, timed bool) int {
	ts := now()
	for i := 0; i < n; i++ {
		p.q.Enqueue(0, mix64(p.key+p.enq))
		p.enq++
		if timed {
			ts = b.lap(spEnqueue, clsPub, ts, 1)
		}
		v, ok := p.q.Dequeue(0)
		if timed {
			ts = b.lap(spDequeue, clsDel, ts, 1)
		}
		if !ok || v != mix64(p.key+p.deq) {
			b.violate("pairs: dequeue %d returned (%#x, %v), want message %d", p.deq, v, ok, p.deq)
		}
		p.deq++
	}
	b.attempted += int64(n)
	return n
}

// runPairs is the paper's headline without the broker. The two queues
// alternate round by round, so machine drift hits both sides of each
// ratio alike; the speed-up is the median of the per-pair ratios.
func runPairs(b *bench) {
	const pairsPerRound = 100_000 // 200 000 operations
	rounds, latRounds := b.scaled(12, 4), b.scaled(6, 2)
	if b.cfg.traced {
		rounds, latRounds = min(rounds, tracedRounds), min(latRounds, 4)
	}
	key := uint64(b.cfg.seed)
	var opt, msq *pairsQueue
	b.call(spNewSet, func() {
		opt, msq = newPairsQueue("opt-unlinked", key), newPairsQueue("durable-msq", key)
	})
	// The count metrics are opt-unlinked's alone: they pin one fence
	// per operation and no access to flushed content.
	b.hs = pmem.NewSetOf(opt.h)
	if b.tr != nil {
		b.tr.watch(b.hs)
	}
	optRound := func() int { return opt.pairs(b, pairsPerRound, false) }
	msqRound := func() int { return msq.pairs(b, pairsPerRound, false) }
	for i := 0; i < 2; i++ {
		b.runRound(opt.h.TotalStats, optRound, false, 0)
		b.runRound(msq.h.TotalStats, msqRound, false, 0)
	}
	b.endSetup(modelledNs(opt.h.TotalStats()) + modelledNs(msq.h.TotalStats()))

	c := b.startCounters()
	for i := 0; i < rounds; i++ {
		b.runRound(opt.h.TotalStats, optRound, true, 0)
		b.runRound(msq.h.TotalStats, msqRound, true, 0)
	}
	var optRounds []roundStat
	var ratio []float64
	for i := 0; i+1 < len(b.rounds); i += 2 {
		o, m := b.rounds[i], b.rounds[i+1]
		optRounds = append(optRounds, o)
		ratio = append(ratio, b.clock.ref(m.t)/b.clock.ref(o.t))
	}
	b.finishCounters(c, optRounds)
	b.reduceRate(optRounds)
	b.res.Values["second_amendment_speedup"] = median(ratio)

	b.rounds = nil
	for i := 0; i < latRounds; i++ {
		b.runRound(opt.h.TotalStats, func() int { return opt.pairs(b, pairsPerRound, true) }, true, 0)
	}
	b.reduceLatency(b.rounds)
}
