// Package verify holds the crash audits cmd/crashfuzz runs: randomized
// concurrent crash fuzzing of a queue with history checking and
// crash-during-recovery injection, and the broker's crash scenarios
// (BrokerScenarios, brokerfuzz.go), written against the broker's
// exported API. The single-queue audits, exhaustive crash-point
// enumeration among them, are package qtest's.
//
// The checks encode the obligations of durable linearizability
// (Izraelevitz et al.) for FIFO queues:
//
//  1. No value is ever delivered twice (pre-crash dequeues and the
//     post-recovery drain combined).
//  2. No phantom values: everything delivered was (at least) the
//     argument of a started enqueue.
//  3. No completed enqueue is lost, except that a value may have been
//     consumed by a dequeue that was pending at a crash (a pending
//     operation may be linearized); the number of such silently
//     vanished values is bounded by the number of pending dequeues.
//  4. Per-enqueuer FIFO: among one thread's completed enqueues, the
//     removed values form a prefix of its enqueue order, and the
//     surviving values drain in enqueue order.
package verify

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/pmem"
	"repro/internal/qtest"
	"repro/internal/queues"
)

// FuzzConfig parameterizes ConcurrentCrashFuzz.
type FuzzConfig struct {
	Threads      int
	OpsPerThread int
	Rounds       int
	Seed         int64
	// RecoveryCrashes injects this many additional crashes during
	// each recovery before letting it complete.
	RecoveryCrashes int
}

// threadLog is one worker's history.
type threadLog struct {
	enqDone    []uint64
	deqDone    []uint64
	pendingEnq *uint64
	pendingDeq bool
}

// ConcurrentCrashFuzz runs concurrent workloads that are cut by a
// crash at a random access, recovers (optionally crashing again during
// recovery), drains, and applies the durable-linearizability checks.
func ConcurrentCrashFuzz(in queues.Info, cfg FuzzConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for round := 0; round < cfg.Rounds; round++ {
		if err := fuzzRound(in, cfg, rng, round); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
	}
	return nil
}

func fuzzRound(in queues.Info, cfg FuzzConfig, rng *rand.Rand, round int) error {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, Mode: pmem.ModeCrash, MaxThreads: cfg.Threads + 1})
	q := in.New(h, cfg.Threads)

	// Arm the crash somewhere inside the expected access volume.
	approx := int64(cfg.Threads*cfg.OpsPerThread) * 15
	h.ScheduleCrashAtAccess(1 + rng.Int63n(approx))

	logs := make([]threadLog, cfg.Threads)
	var wg sync.WaitGroup
	for tid := 0; tid < cfg.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			lrng := rand.New(rand.NewSource(int64(round)<<16 | int64(tid)))
			lg := &logs[tid]
			seq := uint64(1)
			for i := 0; i < cfg.OpsPerThread; i++ {
				if lrng.Intn(2) == 0 {
					v := uint64(tid+1)<<40 | seq
					seq++
					if pmem.Protect(func() { q.Enqueue(tid, v) }) {
						lg.pendingEnq = &v
						return
					}
					lg.enqDone = append(lg.enqDone, v)
				} else {
					var v uint64
					var ok bool
					if pmem.Protect(func() { v, ok = q.Dequeue(tid) }) {
						lg.pendingDeq = true
						return
					}
					if ok {
						lg.deqDone = append(lg.deqDone, v)
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if !h.Crashed() {
		h.CrashNow()
	}
	h.FinalizeCrash(rng)
	h.Restart()

	// Recover, optionally crashing during recovery itself.
	for rc := 0; rc < cfg.RecoveryCrashes; rc++ {
		h.ScheduleCrashAtAccess(1 + rng.Int63n(200))
		if !pmem.Protect(func() { in.Recover(h, cfg.Threads) }) {
			break // recovery completed before the injected point
		}
		if !h.Crashed() {
			h.CrashNow()
		}
		h.FinalizeCrash(rng)
		h.Restart()
	}
	h.ScheduleCrashAtAccess(0)
	rq := in.Recover(h, cfg.Threads)
	drained := qtest.Drain(rq, 0)
	return CheckHistory(logs, drained)
}

// CheckHistory applies the durable-linearizability checks to a set of
// per-thread histories and the post-recovery drain.
func CheckHistory(logs []threadLog, drained []uint64) error {
	started := map[uint64]bool{}
	for _, lg := range logs {
		for _, v := range lg.enqDone {
			started[v] = true
		}
		if lg.pendingEnq != nil {
			started[*lg.pendingEnq] = true
		}
	}
	delivered := map[uint64]bool{}
	deliver := func(v uint64, where string) error {
		if !started[v] {
			return fmt.Errorf("phantom value %#x in %s", v, where)
		}
		if delivered[v] {
			return fmt.Errorf("value %#x delivered twice (%s)", v, where)
		}
		delivered[v] = true
		return nil
	}
	for _, lg := range logs {
		for _, v := range lg.deqDone {
			if err := deliver(v, "pre-crash dequeue"); err != nil {
				return err
			}
		}
	}
	inDrain := map[uint64]int{}
	for i, v := range drained {
		if err := deliver(v, "drain"); err != nil {
			return err
		}
		inDrain[v] = i
	}

	// Rule 3: completed enqueues may vanish only into pending
	// dequeues.
	pendingDeqs := 0
	for _, lg := range logs {
		if lg.pendingDeq {
			pendingDeqs++
		}
	}
	missing := 0
	for _, lg := range logs {
		for _, v := range lg.enqDone {
			if !delivered[v] {
				missing++
			}
		}
	}
	if missing > pendingDeqs {
		return fmt.Errorf("%d completed enqueues missing but only %d dequeues were pending", missing, pendingDeqs)
	}

	// Rule 4: per-enqueuer prefix/order. A thread's completed enqueue
	// values must be removed (delivered pre-crash or vanished) in a
	// prefix, and the surviving ones must appear in the drain in
	// order. The pending enqueue, if it survived, must drain last.
	for t, lg := range logs {
		seq := append([]uint64(nil), lg.enqDone...)
		if lg.pendingEnq != nil {
			seq = append(seq, *lg.pendingEnq)
		}
		lastDrainPos := -1
		surviving := false
		for i, v := range seq {
			pos, inQ := inDrain[v]
			if inQ {
				surviving = true
				if pos <= lastDrainPos {
					return fmt.Errorf("thread %d: value %#x drains out of order", t, v)
				}
				lastDrainPos = pos
				continue
			}
			// Removed. If an earlier value of this thread survived,
			// FIFO is broken — unless this is the pending enqueue,
			// which is allowed to have never been linearized.
			if surviving && i < len(lg.enqDone) {
				return fmt.Errorf("thread %d: completed enqueue %#x removed after a later value survived", t, v)
			}
		}
	}
	return nil
}
