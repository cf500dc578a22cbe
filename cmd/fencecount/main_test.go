package main

import (
	"bytes"
	"os"
	"testing"
)

// TestFenceCountTable diffs the per-operation persist table against
// testdata/want.txt: every queue's fences, flushes, NTStores and
// post-flush accesses per enqueue, dequeue and failing dequeue. A change
// that means to move a count replaces the file with the table this test
// prints, and says why in the same commit.
func TestFenceCountTable(t *testing.T) {
	var got bytes.Buffer
	run(&got)
	want, err := os.ReadFile("testdata/want.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("persist table differs from testdata/want.txt; measured table:\n%s", got.String())
	}
}
