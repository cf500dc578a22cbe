package ptm

import (
	"math/rand"
	"testing"

	"repro/internal/pmem"
	"repro/internal/qtest"
)

func TestPTMSemantics(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) { qtest.RunSemantics(t, in) })
	}
}

func TestPTMConcurrent(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) { qtest.RunConcurrent(t, in, 4, 2000) })
	}
}

func TestPTMCrashRecovery(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) { qtest.RunCrashRecovery(t, in, 4) })
	}
}

func TestPTMEdgeCases(t *testing.T) {
	for _, in := range All() {
		t.Run(in.Name, func(t *testing.T) { qtest.RunEdgeCases(t, in) })
	}
}

// TestOneFileReplayIdempotent forces a crash between commit and
// in-place apply and checks that recovery replays the committed
// transaction exactly once.
func TestOneFileReplayIdempotent(t *testing.T) {
	// Enumerate crash points across a whole enqueue transaction; for
	// each, recovery must yield either the pre- or post-transaction
	// state, and committed => post.
	for crashAt := int64(1); crashAt < 200; crashAt += 3 {
		h := pmem.New(pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
		q := NewOneFileQ(h, 1)
		q.Enqueue(0, 1)
		h.ScheduleCrashAtAccess(crashAt)
		crashed := pmem.Protect(func() { q.Enqueue(0, 2) })
		if !crashed {
			// The whole op completed before the crash point: state
			// must be exactly [1,2].
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(crashAt)))
		h.Restart()
		rq := RecoverOneFileQ(h, 1)
		got := qtest.Drain(rq, 0)
		want2 := len(got) == 2 && got[0] == 1 && got[1] == 2
		want1 := len(got) == 1 && got[0] == 1
		if crashed {
			if !want1 && !want2 {
				t.Fatalf("crashAt %d: recovered %v, want [1] or [1 2]", crashAt, got)
			}
		} else if !want2 {
			t.Fatalf("crashAt %d (completed): recovered %v, want [1 2]", crashAt, got)
		}
	}
}

// TestRedoOptCheckpointCrossing runs enough operations to force ring
// truncation checkpoints and verifies recovery around them.
func TestRedoOptCheckpointCrossing(t *testing.T) {
	h := pmem.New(pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
	q := newRedoOptQ(h, 64 /* tiny log to force checkpoints */, 1<<12)
	var model []uint64
	next := uint64(1)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 1000; op++ {
		if rng.Intn(3) < 2 {
			q.Enqueue(0, next)
			model = append(model, next)
			next++
		} else if _, ok := q.Dequeue(0); ok {
			model = model[1:]
		}
	}
	if q.snapSeq == 0 {
		t.Fatal("test did not exercise a checkpoint")
	}
	h.CrashNow()
	h.FinalizeCrash(rand.New(rand.NewSource(11)))
	h.Restart()
	rq := RecoverRedoOptQ(h, 1)
	got := qtest.Drain(rq, 0)
	if len(got) != len(model) {
		t.Fatalf("recovered %d items, want %d", len(got), len(model))
	}
	for i := range got {
		if got[i] != model[i] {
			t.Fatalf("item %d = %d, want %d", i, got[i], model[i])
		}
	}
}

// TestRedoOptCrashDuringCheckpoint schedules crashes inside the
// checkpoint path and verifies both header generations recover.
func TestRedoOptCrashDuringCheckpoint(t *testing.T) {
	for crashAt := int64(1); crashAt < 600; crashAt += 7 {
		h := pmem.New(pmem.Config{Bytes: 16 << 20, Mode: pmem.ModeCrash, MaxThreads: 2})
		q := newRedoOptQ(h, 16, 1<<10)
		var model []uint64
		for i := uint64(1); i <= 10; i++ { // fill below the log cap
			q.Enqueue(0, i)
			model = append(model, i)
		}
		// The next enqueues cross the checkpoint boundary; crash
		// somewhere inside.
		h.ScheduleCrashAtAccess(crashAt)
		completed := uint64(10) // values 1..10 completed before the crash was armed
		pmem.Protect(func() {
			for i := uint64(11); i <= 20; i++ {
				q.Enqueue(0, i)
				completed = i
			}
		})
		if !h.Crashed() {
			h.CrashNow()
		}
		h.FinalizeCrash(rand.New(rand.NewSource(crashAt)))
		h.Restart()
		rq := RecoverRedoOptQ(h, 1)
		got := qtest.Drain(rq, 0)
		// All completed enqueues must survive; the one pending
		// enqueue may or may not.
		wantMin := int(completed) // values 1..completed
		if len(got) < wantMin || len(got) > wantMin+1 {
			t.Fatalf("crashAt %d: recovered %d items, want %d or %d", crashAt, len(got), wantMin, wantMin+1)
		}
		for i, v := range got {
			if v != uint64(i+1) {
				t.Fatalf("crashAt %d: item %d = %d, want %d", crashAt, i, v, i+1)
			}
		}
	}
}
