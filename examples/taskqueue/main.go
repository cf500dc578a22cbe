// Taskqueue: a durable work queue that survives repeated crashes.
//
// A dispatcher enqueues jobs; workers dequeue and "process" them. The
// system is crashed and restarted several times mid-processing. After
// every restart the queue is recovered and work continues. Because a
// dequeue that was pending at a crash may or may not have removed its
// job (durable linearizability linearizes pending operations at the
// recovery's discretion), the worker records a job as processed only
// after the dequeue returns — giving exactly-once *accounting* on top
// of the queue's guarantees, demonstrated by the final audit.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/pmem"
	"repro/internal/queues"
)

const (
	jobs    = 4000
	crashes = 4
)

func main() {
	h := pmem.New(pmem.Config{Bytes: 64 << 20, Mode: pmem.ModeCrash, MaxThreads: 3})
	q := queues.NewUnlinkedQ(h, 2)

	// Dispatch all jobs up front (persisted one by one).
	for j := uint64(1); j <= jobs; j++ {
		q.Enqueue(0, j)
	}
	fmt.Printf("dispatched %d jobs\n", jobs)

	processed := map[uint64]int{}
	rng := rand.New(rand.NewSource(9))
	queueRef := queues.Queue(q)

	for round := 0; round <= crashes; round++ {
		if round > 0 {
			fmt.Printf("-- crash %d: recovering and resuming --\n", round)
		}
		// Work until the crash fires (or the queue drains).
		if round < crashes {
			h.ScheduleCrashAtAccess(int64(rng.Intn(40_000)) + 1_000)
		}
		for {
			var j uint64
			var ok bool
			if pmem.Protect(func() { j, ok = queueRef.Dequeue(1) }) {
				break // crashed
			}
			if !ok {
				break // drained
			}
			processed[j]++ // the job's side effect
		}
		if !h.Crashed() {
			break // all jobs done before this round's crash fired
		}
		h.FinalizeCrash(rng)
		h.Restart()
		queueRef = queues.RecoverUnlinkedQ(h, 2)
	}

	// Audit.
	var missing, dups int
	for j := uint64(1); j <= jobs; j++ {
		switch processed[j] {
		case 0:
			missing++
		case 1:
		default:
			dups++
		}
	}
	fmt.Printf("jobs processed exactly once: %d\n", jobs-missing-dups)
	fmt.Printf("jobs lost: %d (each crash may consume at most one pending dequeue)\n", missing)
	fmt.Printf("jobs duplicated: %d\n", dups)
	if missing <= crashes && dups == 0 {
		fmt.Println("audit passed")
	} else {
		fmt.Println("AUDIT FAILED")
		os.Exit(1)
	}
}
