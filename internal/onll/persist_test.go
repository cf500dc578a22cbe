package onll_test

import (
	"testing"

	"repro/internal/harness"
)

// TestONLLOneFencePerUpdateZeroPostFlush: the Section 2.1 claim for the
// universal construction, as its row of cmd/fencecount's golden table
// states it: one fence per update, none per read-only operation (a
// failing dequeue), and zero accesses to flushed content.
func TestONLLOneFencePerUpdateZeroPostFlush(t *testing.T) {
	if err := harness.CheckPersistRow("../../cmd/fencecount/testdata/want.txt", "onll"); err != nil {
		t.Error(err)
	}
}
