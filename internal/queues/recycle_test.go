package queues_test

import (
	"testing"

	"repro/internal/qtest"
	"repro/internal/queues"
)

// TestCrashSweepRecycledSlots is the exhaustive crash-point sweep over
// slots recycled across tids (see qtest.RunRecycledCrashSweep), for the
// word codec, plain and acked; package blobq runs the same sweep for
// the blob codec.
func TestCrashSweepRecycledSlots(t *testing.T) {
	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	for _, name := range []string{"opt-unlinked", "opt-unlinked-acked"} {
		t.Run(name, func(t *testing.T) {
			in, ok := queues.Lookup(name)
			if !ok {
				t.Fatalf("queue %q not registered", name)
			}
			qtest.RunRecycledCrashSweep(t, in, stride)
		})
	}
}
