// Package repro is a Go reproduction of "Durable Queues: The Second
// Amendment" (Gal Sela and Erez Petrank, SPAA 2021), grown into a small
// system. The layers, bottom up:
//
//   - internal/pmem: simulated NVRAM (CLWB/SFENCE/movnti, crash-prefix
//     semantics, Optane-like latencies) and HeapSet, several persistence
//     domains on one power supply.
//   - internal/ssmem: the durable node allocator the paper adopts.
//   - internal/queues: the paper's queues. Core is the one body of the
//     second amendment (one fence per operation, zero accesses to
//     flushed lines, batch/lease/ack verbs); OptUnlinkedQ and
//     internal/blobq are its two payload codecs.
//   - internal/dheap: a durable priority queue under the same discipline.
//   - internal/broker: a sharded multi-topic durable message broker over
//     the queues — live administration on a catalog log, acked groups
//     with leases and fencing epochs, delay/priority topics — with
//     internal/obs (observability at zero persist cost) beside it.
//   - internal/harness, internal/verify, internal/qtest: measurement,
//     durable-linearizability fuzzing, every single-queue audit.
//     internal/batch (window policies) and harness.RunBroker serve only
//     benchmark/'s ladder rungs.
//   - cmd/ and examples/: Figure-2 sweeps (durbench), fence counts,
//     crash fuzzing (every broker scenario once), the observability
//     export.
//
// DESIGN.md has the inventory, the protocols and their soundness
// arguments; benchmark/ is the repository's benchmark (its own module).
package repro
