// Package harness drives the five workloads of the paper's
// evaluation (Figure 2) over any registered queue and reports
// throughput, ratio-to-baseline and persist statistics.
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/onll"
	"repro/internal/pmem"
	"repro/internal/ptm"
	"repro/internal/queues"
)

// Workload identifies one Figure 2 panel.
type Workload int

const (
	// WorkloadRandom: each operation is a 50/50 uniform coin flip
	// between enqueue and dequeue (Figure 2, panel 1).
	WorkloadRandom Workload = iota
	// WorkloadPairs: each thread runs enqueue-dequeue pairs (panel 2).
	WorkloadPairs
	// WorkloadEnqOnly: producers only, on an initially empty queue
	// (panel 3).
	WorkloadEnqOnly
	// WorkloadDeqOnly: consumers only, on a prefilled queue (panel 4).
	WorkloadDeqOnly
	// WorkloadProdCons: a quarter of the threads dequeue then
	// enqueue a fixed op count; the rest enqueue then dequeue
	// (panel 5).
	WorkloadProdCons
)

// Name returns the workload's short name.
func (w Workload) Name() string {
	switch w {
	case WorkloadRandom:
		return "random"
	case WorkloadPairs:
		return "pairs"
	case WorkloadEnqOnly:
		return "enq"
	case WorkloadDeqOnly:
		return "deq"
	case WorkloadProdCons:
		return "prodcons"
	}
	return "unknown"
}

// Workloads lists all Figure 2 panels in order.
func Workloads() []Workload {
	return []Workload{WorkloadRandom, WorkloadPairs, WorkloadEnqOnly, WorkloadDeqOnly, WorkloadProdCons}
}

// ParseWorkload resolves a workload name.
func ParseWorkload(s string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name() == s {
			return w, nil
		}
	}
	return 0, fmt.Errorf("unknown workload %q", s)
}

// Config parameterizes one measurement.
type Config struct {
	Queue    queues.Info
	Workload Workload
	Threads  int
	// Duration bounds timed workloads (random, pairs, enq, deq).
	Duration time.Duration
	// OpsPerThread is the fixed op count for prodcons (the paper
	// uses 1M enqueues + 1M dequeues per thread).
	OpsPerThread int
	// InitialSize prefills the queue (the paper uses 10 for random/
	// pairs/prodcons and 12M for deq-only).
	InitialSize int
	HeapBytes   int64
	Latency     pmem.LatencyModel
	// FlushRetainsLine models a platform whose flushes keep lines in
	// the cache (the no-invalidation ablation).
	FlushRetainsLine bool
	Seed             int64
}

// Result is one measurement outcome.
type Result struct {
	Queue    string
	Workload string
	Threads  int
	Ops      uint64
	Elapsed  time.Duration
	Stats    pmem.Stats
}

// Mops returns million operations per second.
func (r Result) Mops() float64 {
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// FencesPerOp returns the measured blocking persists per operation.
func (r Result) FencesPerOp() float64 {
	return float64(r.Stats.Fences) / float64(r.Ops)
}

// PostFlushPerOp returns the measured accesses-to-flushed-content per
// operation.
func (r Result) PostFlushPerOp() float64 {
	return float64(r.Stats.PostFlushAccesses) / float64(r.Ops)
}

// AllQueues returns every benchmarkable queue: the package queues
// registry plus the PTM queues. ONLL is excluded (its log space grows
// with every operation, which a timed run would exhaust); its persist
// counts are a row of cmd/fencecount's golden table, and its own tests
// cover the rest.
func AllQueues() []queues.Info {
	out := append([]queues.Info{}, queues.All()...)
	out = append(out, ptm.All()...)
	return out
}

// LookupQueue finds a queue by name across all registries, including
// "onll".
func LookupQueue(name string) (queues.Info, bool) {
	if name == "onll" {
		return onll.Info(), true
	}
	for _, in := range AllQueues() {
		if in.Name == name {
			return in, true
		}
	}
	return queues.Info{}, false
}

// Run executes one measurement.
func Run(cfg Config) Result {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.HeapBytes == 0 {
		cfg.HeapBytes = 64 << 20
		if cfg.Workload == WorkloadDeqOnly {
			need := int64(cfg.InitialSize)*80 + (16 << 20)
			if need > cfg.HeapBytes {
				cfg.HeapBytes = need
			}
		}
		if cfg.Workload == WorkloadEnqOnly || cfg.Workload == WorkloadProdCons {
			cfg.HeapBytes = 512 << 20
		}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.OpsPerThread == 0 {
		cfg.OpsPerThread = 100_000
	}

	h := pmem.New(pmem.Config{
		Bytes:            cfg.HeapBytes,
		Mode:             pmem.ModePerf,
		MaxThreads:       cfg.Threads + 1,
		FlushRetainsLine: cfg.FlushRetainsLine,
	})
	q := cfg.Queue.New(h, cfg.Threads)
	for i := 0; i < cfg.InitialSize; i++ { // prefill at full speed
		q.Enqueue(0, uint64(i)+1)
	}
	h.SetLatency(cfg.Latency)
	h.ResetStats()

	prev := runtime.GOMAXPROCS(0)
	if cfg.Threads > prev {
		runtime.GOMAXPROCS(cfg.Threads)
		defer runtime.GOMAXPROCS(prev)
	}

	var stop atomic.Bool
	var totalOps atomic.Uint64
	var start sync.WaitGroup
	var done sync.WaitGroup
	start.Add(1)

	worker := func(tid int) {
		defer done.Done()
		rng := rand.New(rand.NewSource(cfg.Seed + int64(tid)*7919))
		seq := uint64(1)
		val := func() uint64 { v := uint64(tid+1)<<40 | seq; seq++; return v }
		ops := uint64(0)
		start.Wait()
		switch cfg.Workload {
		case WorkloadRandom:
			for !stop.Load() {
				if rng.Intn(2) == 0 {
					q.Enqueue(tid, val())
				} else {
					q.Dequeue(tid)
				}
				ops++
			}
		case WorkloadPairs:
			for !stop.Load() {
				q.Enqueue(tid, val())
				q.Dequeue(tid)
				ops += 2
			}
		case WorkloadEnqOnly:
			for !stop.Load() {
				q.Enqueue(tid, val())
				ops++
			}
		case WorkloadDeqOnly:
			for !stop.Load() {
				if _, ok := q.Dequeue(tid); !ok {
					break // drained; the paper's run ends before this
				}
				ops++
			}
		case WorkloadProdCons:
			first, second := WorkloadEnqOnly, WorkloadDeqOnly
			if tid < cfg.Threads/4 {
				first, second = second, first
			}
			for _, phase := range []Workload{first, second} {
				for i := 0; i < cfg.OpsPerThread; i++ {
					if phase == WorkloadEnqOnly {
						q.Enqueue(tid, val())
					} else {
						q.Dequeue(tid)
					}
					ops++
				}
			}
		}
		totalOps.Add(ops)
	}

	for tid := 0; tid < cfg.Threads; tid++ {
		done.Add(1)
		go worker(tid)
	}
	begin := time.Now()
	start.Done()
	if cfg.Workload != WorkloadProdCons {
		timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
		defer timer.Stop()
	}
	done.Wait()
	elapsed := time.Since(begin)

	return Result{
		Queue:    cfg.Queue.Name,
		Workload: cfg.Workload.Name(),
		Threads:  cfg.Threads,
		Ops:      totalOps.Load(),
		Elapsed:  elapsed,
		Stats:    h.TotalStats(),
	}
}
