// Command fencecount verifies the paper's theoretical claims by
// direct measurement: it runs each queue single-threaded in steady
// state and prints the number of blocking persist operations
// (SFENCEs), asynchronous flushes, non-temporal stores and accesses
// to explicitly flushed content per operation.
//
// Expected output, per the paper:
//
//   - UnlinkedQ, LinkedQ, OptUnlinkedQ, OptLinkedQ and ONLL execute
//     exactly 1 fence per operation (the Cohen et al. lower bound);
//   - OptUnlinkedQ additionally elides the persist of repeated failing
//     dequeues (its column shows 0 fences: the observed head index was
//     already made durable by the preceding successful dequeue);
//   - its ack mode (opt-unlinked-acked) dequeues as a lease plus an
//     immediate acknowledgment, one NTStore and one fence, and a failing
//     dequeue issues nothing: emptiness is durable once the emptying
//     dequeues are acknowledged;
//   - OptUnlinkedQ, OptLinkedQ and ONLL additionally make 0 accesses
//     to flushed content (the second amendment / Section 2.1 optimum);
//   - DurableMSQ pays 2 fences per enqueue (3 per dequeue for the
//     detectable durable-msq-full); the generic transforms pay
//     several; all of them access flushed content.
//
// The output is deterministic; testdata/want.txt holds it, and the
// package's test diffs the two. Each row is harness.MeasureOps's, which
// the queue packages' persist pins also diff against their rows of
// want.txt.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/harness"
)

func main() { run(os.Stdout) }

// run writes the table to w.
func run(w io.Writer) {
	fmt.Fprintf(w, "%-26s %31s  %31s  %31s\n", "", "enqueue", "dequeue", "failing dequeue")
	fmt.Fprintf(w, "%-26s %31s  %31s  %31s\n", "queue",
		"fence flush ntst pflush", "fence flush ntst pflush", "fence flush ntst pflush")
	names := []string{
		"opt-unlinked", "opt-linked", "opt-unlinked-acked", "unlinked", "unlinked-nodcas", "linked",
		"durable-msq", "durable-msq-full", "izraelevitz", "nvtraverse",
		"onefile", "redoopt", "onll", "msq",
	}
	for _, name := range names {
		in, ok := harness.LookupQueue(name)
		if !ok {
			continue
		}
		fmt.Fprintln(w, harness.MeasureOps(in).Row(name))
	}
	fmt.Fprintln(w, "\n(pflush = accesses to explicitly flushed cache lines; the paper's")
	fmt.Fprintln(w, " second amendment drives this to zero while keeping fences at 1.)")
}
