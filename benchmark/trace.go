package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/pmem"
)

// The traced pass records a span at every call the benchmark makes
// into a layer. Nothing is recorded inside the program under test:
// that is a later issue. Spans nest workload > round > verb, carry the
// pmem events counted between their boundaries, and round spans carry
// the Go allocations too.

type spanName uint8

const (
	spWorkload spanName = iota
	spRound
	spNewSet
	spOpen
	spCreateTopic
	spCreateAckGroup
	spNewGroup
	spPrefill
	spPublish
	spPublishBatch
	spPoll
	spPollBatch
	spAck
	spPublishAtBatch
	spDequeueReadyBatch
	spEnqueue
	spDequeue
	spFinalizeCrash
	spRestart
	spDrain
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"workload", "round", "pmem.NewSet", "broker.Open", "broker.CreateTopic",
	"broker.CreateAckGroup", "broker.NewGroup", "prefill", "Topic.Publish",
	"Topic.PublishBatch", "Consumer.Poll", "Consumer.PollBatch", "Consumer.Ack",
	"Topic.PublishAtBatch", "Topic.DequeueReadyBatch", "Queue.Enqueue",
	"Queue.Dequeue", "HeapSet.FinalizeCrash", "HeapSet.Restart", "drain",
}

// tracedRounds caps the measured rounds of a traced rep so that the
// span buffer (and the file written from it) stays bounded; timing
// metrics are medians over rounds, so the cap does not bias them.
const tracedRounds = 8

const maxSpans = 1 << 20

type span struct {
	name                      spanName
	parent                    int32
	start, end                int64
	msgs                      int32
	fences, flushes, ntstores uint32
	allocs, allocBytes        uint64 // round and workload spans only
}

type verbTotal struct {
	ns, msgs, calls int64
}

type tracer struct {
	spans   []span // preallocated; never grows while measuring
	dropped int64
	stack   []int32
	stats   func() pmem.Stats
	last    pmem.Stats
	mem     []runtime.MemStats // one per open structural span
	totals  [nSpanNames]verbTotal
}

func newTracer() *tracer {
	return &tracer{
		spans: make([]span, 0, maxSpans),
		stack: make([]int32, 0, 8),
		mem:   make([]runtime.MemStats, 0, 8),
		stats: func() pmem.Stats { return pmem.Stats{} },
	}
}

// watch points the tracer at the heap set whose events it counts.
func (t *tracer) watch(hs *pmem.HeapSet) {
	t.stats = hs.TotalStats
	t.last = hs.TotalStats()
}

func (t *tracer) parent() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a structural span (workload, round).
func (t *tracer) begin(name spanName) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.parent(), start: now()})
	t.stack = append(t.stack, id)
	t.mem = t.mem[:len(t.mem)+1]
	runtime.ReadMemStats(&t.mem[len(t.mem)-1])
	return id
}

func (t *tracer) end(id int32, msgs int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	base := &t.mem[len(t.mem)-1]
	s := &t.spans[id]
	s.end = now()
	s.msgs = int32(msgs)
	s.allocs, s.allocBytes = m.Mallocs-base.Mallocs, m.TotalAlloc-base.TotalAlloc
	t.stack = t.stack[:len(t.stack)-1]
	t.mem = t.mem[:len(t.mem)-1]
}

// leaf records one call into a layer, with the pmem events counted
// since the previous boundary.
func (t *tracer) leaf(name spanName, start, end int64, msgs int) {
	st := t.stats()
	d := st.Sub(t.last)
	t.last = st
	tot := &t.totals[name]
	tot.ns += end - start
	tot.msgs += int64(msgs)
	tot.calls++
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		name: name, parent: t.parent(), start: start, end: end, msgs: int32(msgs),
		fences: uint32(d.Fences), flushes: uint32(d.Flushes), ntstores: uint32(d.NTStores),
	})
}

// perMsg is a verb's total span time per message it carried.
func (t *tracer) perMsg(names ...spanName) float64 {
	var ns, msgs int64
	for _, n := range names {
		ns += t.totals[n].ns
		msgs += t.totals[n].msgs
	}
	if msgs == 0 {
		return 0
	}
	return float64(ns) / float64(msgs)
}

// write dumps the buffer as compact JSON rows; README.md says how to
// read them.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"dropped\":%d,\n", workload, seed, t.dropped)
	fmt.Fprint(w, "\"columns\":[\"id\",\"name\",\"parent\",\"start_ns\",\"end_ns\",\"msgs\",\"fences\",\"flushes\",\"ntstores\",\"allocs\",\"alloc_bytes\"],\n\"names\":[")
	for i, n := range spanNames {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, "],\n\"spans\":[\n")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d]%s\n", i, s.name, s.parent, s.start, s.end,
			s.msgs, s.fences, s.flushes, s.ntstores, s.allocs, s.allocBytes, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
