package harness

import (
	"testing"
	"time"

	"repro/internal/pmem"
)

func quickCfg(w Workload, queue string, threads int) Config {
	in, ok := LookupQueue(queue)
	if !ok {
		panic("unknown queue " + queue)
	}
	cfg := Config{
		Queue:        in,
		Workload:     w,
		Threads:      threads,
		Duration:     25 * time.Millisecond,
		OpsPerThread: 500,
		InitialSize:  10,
		HeapBytes:    64 << 20,
		Latency:      pmem.ZeroLatency(),
		Seed:         3,
	}
	if w == WorkloadDeqOnly {
		cfg.InitialSize = 50_000
		if raceEnabled {
			cfg.InitialSize = 10_000
		}
	}
	return cfg
}

func TestRunAllWorkloadsAllQueues(t *testing.T) {
	for _, in := range AllQueues() {
		if raceEnabled {
			// Under the race detector the simulator runs an order of
			// magnitude slower; exercise the harness plumbing on a
			// representative subset (the queues themselves get full
			// race coverage in their own packages).
			switch in.Name {
			case "opt-unlinked", "durable-msq", "msq", "onefile":
			default:
				continue
			}
		}
		for _, w := range Workloads() {
			if in.Ablation && w != WorkloadRandom && w != WorkloadPairs {
				// Sweeps skip the ablations where the queue grows or is
				// prefilled (queues.Info.Ablation; cmd/durbench does):
				// linked-naive is O(queue length) per enqueue by design.
				continue
			}
			r := Run(quickCfg(w, in.Name, 2))
			if r.Ops == 0 {
				t.Errorf("%s/%s: zero ops", in.Name, w.Name())
			}
			if r.Elapsed <= 0 {
				t.Errorf("%s/%s: non-positive elapsed", in.Name, w.Name())
			}
		}
	}
}

func TestRunMeasuresFencesPerOp(t *testing.T) {
	// Pairs on opt-unlinked must show exactly 1 fence per op.
	r := Run(quickCfg(WorkloadPairs, "opt-unlinked", 1))
	if f := r.FencesPerOp(); f < 0.99 || f > 1.01 {
		t.Errorf("opt-unlinked pairs fences/op = %.3f, want 1", f)
	}
	if p := r.PostFlushPerOp(); p != 0 {
		t.Errorf("opt-unlinked pairs post-flush/op = %.3f, want 0", p)
	}
	// DurableMSQ pairs: (2 enq + 1 deq) / 2 ops = 1.5 fences/op.
	r = Run(quickCfg(WorkloadPairs, "durable-msq", 1))
	if f := r.FencesPerOp(); f < 1.45 || f > 1.55 {
		t.Errorf("durable-msq pairs fences/op = %.3f, want 1.5", f)
	}
}

func TestSweepAndTables(t *testing.T) {
	base := quickCfg(WorkloadPairs, "durable-msq", 1)
	base.Queue = Config{}.Queue // Sweep fills it
	results, err := Sweep(base, []string{"durable-msq", "opt-unlinked"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || len(results[0]) != 2 {
		t.Fatalf("unexpected sweep shape %dx%d", len(results), len(results[0]))
	}
	for _, s := range []string{
		ThroughputTable("t", []int{1, 2}, results),
		RatioTable("t", "durable-msq", []int{1, 2}, results),
		StatsTable("t", []int{1, 2}, results),
		CSV(results),
	} {
		if len(s) == 0 {
			t.Fatal("empty table rendering")
		}
	}
}

func TestParseWorkload(t *testing.T) {
	for _, w := range Workloads() {
		got, err := ParseWorkload(w.Name())
		if err != nil || got != w {
			t.Fatalf("ParseWorkload(%q) = %v, %v", w.Name(), got, err)
		}
	}
	if _, err := ParseWorkload("nope"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestLookupQueue(t *testing.T) {
	for _, name := range []string{"opt-unlinked", "onefile", "onll", "msq"} {
		if _, ok := LookupQueue(name); !ok {
			t.Fatalf("LookupQueue(%q) failed", name)
		}
	}
	if _, ok := LookupQueue("bogus"); ok {
		t.Fatal("LookupQueue accepted a bogus name")
	}
}
