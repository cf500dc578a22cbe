// Package qtest is the conformance suite of the Queue implementations:
// sequential semantics against a model, concurrent no-duplication,
// no-loss, FIFO and real-time order, and, for durable queues, quiescent
// crash cycles, the recovery edge cases, an exhaustive crash-point
// sweep, a sweep over recycled slots and a randomized crash property.
// Every crash audit replays a script through one cut (run.cut) and
// judges what recovery rebuilt with one check (run.check).
package qtest

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pmem"
	"repro/internal/queues"
	"repro/internal/ssmem"
)

// HeapBytes is the heap size of the suite's long runs.
const HeapBytes = 64 << 20

// shortHeapBytes is the heap of a short script: a crash sweep builds
// one for every cut.
const shortHeapBytes = 4 << 20

// Drain dequeues until empty and returns the items in order.
func Drain(q queues.Queue, tid int) []uint64 {
	var out []uint64
	for {
		v, ok := q.Dequeue(tid)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// RunSemantics checks single-threaded behaviour against a slice model.
func RunSemantics(t *testing.T, in queues.Info) {
	t.Helper()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := pmem.New(pmem.Config{Bytes: HeapBytes, MaxThreads: 2})
		q := in.New(h, 1)
		var model []uint64
		next := uint64(1)
		for op := 0; op < 3000; op++ {
			if rng.Intn(2) == 0 {
				q.Enqueue(0, next)
				model = append(model, next)
				next++
			} else {
				v, ok := q.Dequeue(0)
				switch {
				case len(model) == 0 && ok:
					t.Fatalf("seed %d op %d: dequeue on empty returned %d", seed, op, v)
				case len(model) > 0 && (!ok || v != model[0]):
					t.Fatalf("seed %d op %d: got (%d,%v), want (%d,true)", seed, op, v, ok, model[0])
				case len(model) > 0:
					model = model[1:]
				}
			}
		}
		if got := Drain(q, 0); !slices.Equal(got, model) {
			t.Fatalf("seed %d: drained %v, want %v", seed, got, model)
		}
	}
}

// RunZeroAndDuplicateValues checks that the zero value and repeated
// values travel faithfully.
func RunZeroAndDuplicateValues(t *testing.T, in queues.Info) {
	t.Helper()
	q := in.New(pmem.New(pmem.Config{Bytes: shortHeapBytes, MaxThreads: 2}), 1)
	want := []uint64{0, 5, 5, 0}
	for _, v := range want {
		q.Enqueue(0, v)
	}
	if got := Drain(q, 0); !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
}

// deqEvent records one successful dequeue with real-time stamps taken
// from a shared atomic clock: begin before the operation's invocation
// and end after its response.
type deqEvent struct {
	begin, end uint64
	value      uint64
}

// RunConcurrent checks no-duplication, no-loss, per-enqueuer FIFO and
// real-time dequeue ordering under concurrency.
func RunConcurrent(t *testing.T, in queues.Info, threads, opsPer int) {
	t.Helper()
	h := pmem.New(pmem.Config{Bytes: HeapBytes, MaxThreads: threads + 1})
	q := in.New(h, threads)
	enqueued := make([][]uint64, threads)
	dequeued := make([][]deqEvent, threads)
	var clock atomic.Uint64
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tid) + 99))
			seq := uint64(1)
			for i := 0; i < opsPer; i++ {
				if rng.Intn(2) == 0 {
					v := uint64(tid)<<32 | seq
					seq++
					q.Enqueue(tid, v)
					enqueued[tid] = append(enqueued[tid], v)
				} else {
					begin := clock.Add(1)
					if v, ok := q.Dequeue(tid); ok {
						dequeued[tid] = append(dequeued[tid], deqEvent{begin: begin, end: clock.Add(1), value: v})
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	remaining := Drain(q, 0)

	all := map[uint64]bool{}
	for _, es := range enqueued {
		for _, v := range es {
			all[v] = true
		}
	}
	seen := map[uint64]bool{}
	check := func(v uint64) {
		if !all[v] {
			t.Fatalf("phantom value %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
	for _, ds := range dequeued {
		for _, d := range ds {
			check(d.value)
		}
	}
	lastSeq := map[uint64]uint64{}
	for _, v := range remaining {
		check(v)
		tid, seq := v>>32, v&0xffffffff
		if seq <= lastSeq[tid] {
			t.Fatalf("FIFO violation for enqueuer %d: seq %d after %d", tid, seq, lastSeq[tid])
		}
		lastSeq[tid] = seq
	}
	if len(seen) != len(all) {
		t.Fatalf("lost values: %d enqueued, %d accounted", len(all), len(seen))
	}
	checkRealTimeOrder(t, dequeued)
}

// checkRealTimeOrder verifies a linearizability consequence that the
// drain checks cannot see: if two completed dequeues returned values
// of the same enqueuer and one finished strictly before the other
// began, the earlier dequeue must have returned the earlier-enqueued
// value (same-thread enqueues are real-time ordered, and FIFO dequeues
// respect enqueue linearization order).
func checkRealTimeOrder(t *testing.T, dequeued [][]deqEvent) {
	t.Helper()
	byEnq := map[uint64][]deqEvent{}
	for _, ds := range dequeued {
		for _, d := range ds {
			byEnq[d.value>>32] = append(byEnq[d.value>>32], d)
		}
	}
	for enq, evs := range byEnq {
		byEnd := append([]deqEvent(nil), evs...)
		sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].end < byEnd[j].end })
		byBegin := append([]deqEvent(nil), evs...)
		sort.Slice(byBegin, func(i, j int) bool { return byBegin[i].begin < byBegin[j].begin })
		i := 0
		var maxSeqEnded uint64
		for _, d := range byBegin {
			for i < len(byEnd) && byEnd[i].end < d.begin {
				if s := byEnd[i].value & 0xffffffff; s > maxSeqEnded {
					maxSeqEnded = s
				}
				i++
			}
			if s := d.value & 0xffffffff; maxSeqEnded > s {
				t.Fatalf("real-time order violation for enqueuer %d: a dequeue of seq <= %d began after a dequeue of seq %d completed", enq, s, maxSeqEnded)
			}
		}
	}
}

// ScriptOp is one step of a crash-cut script: on thread Tid, an
// enqueue of V, or (Enq false) a dequeue.
type ScriptOp struct {
	Enq bool
	V   uint64
	Tid int
}

// Script builds a deterministic script of n operations on thread 0,
// two enqueues to a dequeue on average, that enqueues 1, 2, ... in turn.
func Script(n int, seed int64) []ScriptOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]ScriptOp, n)
	v := uint64(1)
	for i := range ops {
		if rng.Intn(3) < 2 {
			ops[i] = ScriptOp{Enq: true, V: v}
			v++
		}
	}
	return ops
}

// run is a durable queue on a ModeCrash heap, and model, what the
// operations that completed on it left.
type run struct {
	in      queues.Info
	threads int
	h       *pmem.Heap
	q       queues.Queue
	model   []uint64
}

func newRun(in queues.Info, threads int, bytes int64) *run {
	h := pmem.New(pmem.Config{Bytes: bytes, Mode: pmem.ModeCrash, MaxThreads: threads + 1})
	return &run{in: in, threads: threads, h: h, q: in.New(h, threads)}
}

// cut replays script with a crash armed at its k-th simulated access
// (k = 0 arms none: the crash comes at quiescence, after the last
// operation), finalizes the crash with eviction draws from evict,
// restarts the heap and recovers the queue. Every dequeue that
// completes must return the model's head. Afterwards r.model is what
// the completed operations left, state A; if the crash cut an
// operation, crashed is set and b is state B, A with that operation
// applied. accesses counts the script's accesses up to the crash, if
// one was armed.
func (r *run) cut(script []ScriptOp, k int64, evict *rand.Rand) (b []uint64, crashed bool, accesses int64, err error) {
	if k > 0 {
		r.h.ScheduleCrashAtAccess(k)
	}
	for _, op := range script {
		var v uint64
		var ok bool
		if pmem.Protect(func() {
			if op.Enq {
				r.q.Enqueue(op.Tid, op.V)
			} else {
				v, ok = r.q.Dequeue(op.Tid)
			}
		}) {
			b, crashed = apply(slices.Clone(r.model), op), true
			break
		}
		if !op.Enq {
			want, wantOK := uint64(0), len(r.model) > 0
			if wantOK {
				want = r.model[0]
			}
			if v != want || ok != wantOK {
				return nil, false, 0, fmt.Errorf("dequeue on tid %d returned (%d,%v), want (%d,%v)", op.Tid, v, ok, want, wantOK)
			}
		}
		r.model = apply(r.model, op)
	}
	accesses = r.h.AccessCount()
	if !crashed {
		r.h.CrashNow()
	}
	r.h.FinalizeCrash(evict)
	r.h.Restart()
	r.q = r.in.Recover(r.h, r.threads)
	return b, crashed, accesses, nil
}

func apply(model []uint64, op ScriptOp) []uint64 {
	switch {
	case op.Enq:
		return append(model, op.V)
	case len(model) > 0:
		return model[1:]
	}
	return model
}

// check drains the recovered queue and requires state A, r.model, or,
// when b is not nil, state B; the queue must then take an enqueue and
// give it back.
func (r *run) check(b []uint64) error {
	got := Drain(r.q, 0)
	if !slices.Equal(got, r.model) && (b == nil || !slices.Equal(got, b)) {
		return fmt.Errorf("recovered %v, want the completed operations' %v (or with the cut one applied, %v)", got, r.model, b)
	}
	r.model = nil
	r.q.Enqueue(0, 0xdead)
	if v, ok := r.q.Dequeue(0); !ok || v != 0xdead {
		return fmt.Errorf("recovered queue unusable: got (%d,%v)", v, ok)
	}
	return nil
}

// crashCut is a cut and its check.
func (r *run) crashCut(script []ScriptOp, k int64, evict *rand.Rand) (crashed bool, accesses int64, err error) {
	b, crashed, accesses, err := r.cut(script, k, evict)
	if err == nil {
		err = r.check(b)
	}
	return crashed, accesses, err
}

func seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RunCrashRecovery drives a durable queue through cycles of 400
// operations on two threads, each ended by a crash at quiescence, and
// demands exact state reconstruction: each cycle opens with a dequeue
// of the head recovery rebuilt, and the last recovery is drained whole.
func RunCrashRecovery(t *testing.T, in queues.Info, cycles int) {
	t.Helper()
	crashCycles(t, in, cycles, false)
}

// RunSplitCrashRecovery is RunCrashRecovery with the threads split the
// way a broker's are: tid 0 only enqueues and tid 1 only dequeues, so
// the slots each recovery frees reach the producer only through the
// allocator's depot.
func RunSplitCrashRecovery(t *testing.T, in queues.Info, cycles int) {
	t.Helper()
	crashCycles(t, in, cycles, true)
}

func crashCycles(t *testing.T, in queues.Info, cycles int, split bool) {
	t.Helper()
	r := newRun(in, 2, HeapBytes)
	rng := rand.New(rand.NewSource(7))
	next := uint64(1)
	for c := 0; c < cycles; c++ {
		script := []ScriptOp{{Tid: 1}}
		for i := 1; i < 400; i++ {
			op := ScriptOp{Tid: i % 2}
			if rng.Intn(3) < 2 {
				op.Enq, op.V = true, next
				next++
			}
			if split {
				op.Tid = 1
				if op.Enq {
					op.Tid = 0
				}
			}
			script = append(script, op)
		}
		if _, _, _, err := r.cut(script, 0, seeded(int64(c))); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if err := r.check(nil); err != nil {
		t.Fatal(err)
	}
}

// RunRecoveryEmptyQueue: a never-used queue and a drained one, whose
// emptiness a failing dequeue made durable, recover empty and usable.
func RunRecoveryEmptyQueue(t *testing.T, in queues.Info) {
	t.Helper()
	var drained []ScriptOp
	for v := uint64(1); v <= 50; v++ {
		drained = append(drained, ScriptOp{Enq: true, V: v})
	}
	for i := 0; i < 50; i++ {
		drained = append(drained, ScriptOp{Tid: 1})
	}
	drained = append(drained, ScriptOp{})
	for _, script := range [][]ScriptOp{nil, drained} {
		if _, _, err := newRun(in, 2, shortHeapBytes).crashCut(script, 0, seeded(5)); err != nil {
			t.Fatalf("%d operations: %v", len(script), err)
		}
	}
}

// RunSingleItemRecovery exercises the dummy-node boundary: a queue
// holding exactly one item, under several eviction draws.
func RunSingleItemRecovery(t *testing.T, in queues.Info) {
	t.Helper()
	for seed := int64(0); seed < 4; seed++ {
		if _, _, err := newRun(in, 2, shortHeapBytes).crashCut([]ScriptOp{{Enq: true, V: 7}}, 0, seeded(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// RunRecoveryIdempotent: crashing again with no operation since the
// last recovery, three times over, recovers the same state (recovery
// must not damage its own durable input).
func RunRecoveryIdempotent(t *testing.T, in queues.Info) {
	t.Helper()
	var script []ScriptOp
	for v := uint64(1); v <= 30; v++ {
		script = append(script, ScriptOp{Enq: true, V: v})
	}
	for i := 0; i < 10; i++ {
		script = append(script, ScriptOp{Tid: 1})
	}
	r := newRun(in, 2, shortHeapBytes)
	for _, seed := range []int64{0, 1, 2, 99} {
		if _, _, _, err := r.cut(script, 0, seeded(seed)); err != nil {
			t.Fatal(err)
		}
		script = nil
	}
	if err := r.check(nil); err != nil {
		t.Fatal(err)
	}
}

// RunFailingDequeuePersistsEmptiness: the paper's observation about
// failing dequeues. Once a failing dequeue completed, a crash that
// persists nothing the fences did not (minimal eviction) must recover
// an empty queue.
func RunFailingDequeuePersistsEmptiness(t *testing.T, in queues.Info) {
	t.Helper()
	script := []ScriptOp{{Enq: true, V: 1}, {Enq: true, V: 2}, {}, {}, {}}
	if _, _, err := newRun(in, 2, shortHeapBytes).crashCut(script, 0, rand.New(zeroSource{})); err != nil {
		t.Fatal(err)
	}
}

// RunRecoveryWithLargeQueue stresses recovery's scan and index
// ordering with a backlog that spans several allocator areas.
func RunRecoveryWithLargeQueue(t *testing.T, in queues.Info) {
	t.Helper()
	n := uint64(10000)
	if raceEnabled {
		n = 2000
	}
	var script []ScriptOp
	for v := uint64(1); v <= n; v++ {
		script = append(script, ScriptOp{Enq: true, V: v})
	}
	for i := uint64(0); i < n/2; i++ {
		script = append(script, ScriptOp{Tid: 1})
	}
	if _, _, err := newRun(in, 2, HeapBytes).crashCut(script, 0, seeded(9)); err != nil {
		t.Fatal(err)
	}
}

// zeroSource draws zero every time: FinalizeCrash then keeps only the
// stores fences made durable.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// RunEdgeCases runs the edge-case audits above, each as a subtest: zero
// and repeated values and, on a durable queue, the recovery of an empty,
// a one-item, a repeatedly crashed, an emptied and a large queue.
func RunEdgeCases(t *testing.T, in queues.Info) {
	t.Helper()
	t.Run("ZeroAndDuplicateValues", func(t *testing.T) { RunZeroAndDuplicateValues(t, in) })
	if !in.Durable {
		return
	}
	for _, e := range []struct {
		name  string
		audit func(*testing.T, queues.Info)
	}{
		{"RecoveryEmptyQueue", RunRecoveryEmptyQueue},
		{"SingleItemRecovery", RunSingleItemRecovery},
		{"RecoveryIdempotent", RunRecoveryIdempotent},
		{"FailingDequeuePersistsEmptiness", RunFailingDequeuePersistsEmptiness},
		{"RecoveryWithLargeQueue", RunRecoveryWithLargeQueue},
	} {
		t.Run(e.name, func(t *testing.T) { e.audit(t, in) })
	}
}

// sweep runs the script whole, with a crash armed past its end that
// counts its accesses and a crash at quiescence after it, then cuts it
// at every stride-th of those accesses, each with seeds eviction draws.
// cut builds a fresh queue every time.
func sweep(t *testing.T, stride, seeds int64, cut func(k int64, evict *rand.Rand) (crashed bool, accesses int64, err error)) {
	t.Helper()
	_, total, err := cut(1<<60, seeded(0))
	if err != nil {
		t.Fatalf("crash after the script: %v", err)
	}
	fired := false
	for k := int64(1); k <= total; k += stride {
		for s := int64(0); s < seeds; s++ {
			crashed, _, err := cut(k, seeded(k*seeds+s))
			if err != nil {
				t.Fatalf("crash at access %d of %d, eviction seed %d: %v", k, total, k*seeds+s, err)
			}
			fired = fired || crashed
		}
	}
	if !fired {
		t.Fatal("no crash point fired")
	}
}

// RunCrashSweep cuts script, run on a fresh single-thread queue, at
// every stride-th of its simulated accesses, each with seeds eviction
// draws.
func RunCrashSweep(t *testing.T, in queues.Info, script []ScriptOp, stride, seeds int64) {
	t.Helper()
	sweep(t, stride, seeds, func(k int64, evict *rand.Rand) (bool, int64, error) {
		return newRun(in, 1, shortHeapBytes).crashCut(script, k, evict)
	})
}

// RunRecycledCrashSweep cuts a short script at every one of its memory
// accesses (every stride-th, for stride > 1) in a queue whose threads
// are split the way a broker's are: tid 0 only enqueues, tid 1 only
// dequeues. The warm-up runs until the slots tid 1 retired have
// crossed the allocator's depot, and ends with a power loss at
// quiescence and a recovery, which files every slot the backlog does
// not hold in the depot. So every enqueue of the script writes into a
// slot sealed before that power loss, which still carries, on media,
// the set linked flag and the index of its previous life, and the
// payload seals of an earlier boot. Recovery must resurrect exactly
// the durable suffix, in index order, whatever the cut.
func RunRecycledCrashSweep(t *testing.T, in queues.Info, stride int64) {
	t.Helper()
	if raceEnabled {
		stride *= 6
	}
	var script []ScriptOp
	for i, enq := range []bool{true, true, false, false, true, true, false, true, false, false} {
		if enq {
			script = append(script, ScriptOp{Enq: true, V: 1<<32 | uint64(i)})
		} else {
			script = append(script, ScriptOp{Tid: 1})
		}
	}
	sweep(t, stride, 1, func(k int64, evict *rand.Rand) (bool, int64, error) {
		r := newRun(in, 2, shortHeapBytes)
		warm(t, r)
		if _, _, _, err := r.cut(nil, 0, seeded(0)); err != nil {
			return false, 0, err
		}
		return r.crashCut(script, k, evict)
	})
}

// warm fills r until its next enqueue is guaranteed a recycled slot,
// keeping a backlog for the script's dequeues.
func warm(t *testing.T, r *run) {
	pools := r.q.(interface{ PoolStats() ssmem.Stats })
	for v := uint64(1); pools.PoolStats().DepotFree == 0; v++ {
		r.q.Enqueue(0, v)
		r.model = append(r.model, v)
		if v%4 != 0 {
			r.q.Dequeue(1)
			r.model = r.model[1:]
		}
		// A chunk seen waiting in the depot goes to tid 0, which never
		// retires and so has no slots of its own, and serves its next
		// 128 allocations.
		if v > 1<<14 {
			t.Fatal("warm-up never saw a retired slot reach the depot")
		}
	}
}

// RunCrashProperty is the randomized counterpart of RunCrashSweep: a
// fixed-seed source draws, case after case, a 40-operation Script, a
// cut among its first 700 accesses and an eviction seed, so a failing
// case reruns as it failed.
func RunCrashProperty(t *testing.T, in queues.Info) {
	t.Helper()
	cases := 120
	if raceEnabled {
		cases = 25
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < cases; i++ {
		scriptSeed, k, evictSeed := rng.Int63(), 1+rng.Int63n(700), rng.Int63()
		if _, _, err := newRun(in, 1, shortHeapBytes).crashCut(Script(40, scriptSeed), k, seeded(evictSeed)); err != nil {
			t.Fatalf("script %d, crash at access %d, eviction seed %d: %v", scriptSeed, k, evictSeed, err)
		}
	}
}
