package onll

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/qtest"
)

func TestONLLSemantics(t *testing.T)    { qtest.RunSemantics(t, Info()) }
func TestONLLConcurrent(t *testing.T)   { qtest.RunConcurrent(t, Info(), 4, 1500) }
func TestONLLCrashRecover(t *testing.T) { qtest.RunCrashRecovery(t, Info(), 3) }
func TestONLLEdgeCases(t *testing.T)    { qtest.RunEdgeCases(t, Info()) }

// TestONLLOneFencePerUpdateZeroPostFlush verifies the Section 2.1
// claim: one fence per update, zero fences per read-only operation,
// zero accesses to flushed content — for the universal construction.
func TestONLLOneFencePerUpdateZeroPostFlush(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 32 << 20, MaxThreads: 2})
	q := NewQueue(h, 1)
	for i := uint64(1); i <= 100; i++ { // warm
		q.Enqueue(0, i)
	}
	base := h.TotalStats()
	const n = 200
	for i := uint64(1); i <= n; i++ {
		q.Enqueue(0, i)
	}
	for i := 0; i < n; i++ {
		if _, ok := q.Dequeue(0); !ok {
			t.Fatal("unexpected empty")
		}
	}
	s := h.TotalStats().Sub(base)
	if s.Fences != 2*n {
		t.Errorf("fences = %d for %d updates, want %d", s.Fences, 2*n, 2*n)
	}
	if s.PostFlushAccesses != 0 {
		t.Errorf("post-flush accesses = %d, want 0", s.PostFlushAccesses)
	}
	// Drain to empty; failing dequeues are read-only: zero fences.
	for i := 0; i < 100; i++ {
		q.Dequeue(0)
	}
	mid := h.TotalStats()
	for i := 0; i < 50; i++ {
		if _, ok := q.Dequeue(0); ok {
			t.Fatal("queue should be empty")
		}
	}
	if d := h.TotalStats().Sub(mid); d.Fences != 0 {
		t.Errorf("failing dequeues issued %d fences, want 0", d.Fences)
	}
}

// TestONLLGenericObject applies the construction to a different
// object (a counter with add/get) to back the "any object" claim.
type counter struct{ v uint64 }

func (c *counter) Apply(code, arg uint64) uint64 {
	if code != 1 {
		panic("counter: unknown update")
	}
	c.v += arg
	return c.v
}
func (c *counter) Query(code, arg uint64) uint64 { return c.v }
func (c *counter) Reset()                        { c.v = 0 }

func TestONLLGenericObject(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	c := &counter{}
	u := New(h, 1, c, h.Bytes()/4)
	var want uint64
	for i := uint64(1); i <= 50; i++ {
		u.Update(0, 1, i)
		want += i
	}
	if got := u.Query(0, 0, 0); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	h.CrashNow()
	h.FinalizeCrash(newRand(3))
	h.Restart()
	c2 := &counter{}
	Recover(h, 1, c2)
	if c2.v != want {
		t.Fatalf("recovered counter = %d, want %d", c2.v, want)
	}
}

// TestONLLLogExhaustionPanics documents the unbounded-history
// limitation.
func TestONLLLogExhaustionPanics(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 16 << 20, MaxThreads: 2})
	u := New(h, 1, &SeqQueue{}, 10*pmem.CacheLineBytes)
	defer func() {
		if recover() == nil {
			t.Fatal("expected log-exhaustion panic")
		}
	}()
	for i := uint64(0); i < 100; i++ {
		u.Update(0, OpEnq, i)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
