// Command benchmark is the repository's benchmark: six closed-loop,
// single-client workloads over the durable broker and the paper's
// queues, end-to-end metrics with regression bounds, and an outside-in
// per-layer ladder. See README.md.
//
//	go run . -workload fifo-batch8 -seed 1 -seconds 10 -trace 0   one workload, one JSON line last
//	go run .                                                     every workload, both passes, out/results.json
//	go run . -compare a.json b.json                              the twin-run / parent-vs-change check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    int
	reps     int
	outDir   string
	results  string
	compare  bool
	child    string
}

// nominalSeconds is the measuring time the round counts in this
// package add up to on the reference box (2 vCPU, go1.24) at -reps 3:
// -seconds scales every round count by seconds/nominalSeconds.
const nominalSeconds = 10

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result as the last line (default: all workloads, both passes)")
	flag.Int64Var(&o.seed, "seed", 1, "seeds payload bytes, deadlines, crash points and the FinalizeCrash rng")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "measuring time per workload; fixes the number of rounds")
	flag.Float64Var(&o.scale, "scale", 1, "shrinks round counts further, for smoke runs")
	flag.IntVar(&o.trace, "trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics, trace files); default both")
	flag.IntVar(&o.reps, "reps", 3, "fresh measuring processes per workload on the untraced pass")
	flag.StringVar(&o.outDir, "out", "", "directory for trace files and results.json (default benchmark/out, or out inside benchmark/)")
	flag.StringVar(&o.results, "o", "", "results file (default <out>/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare a.json b.json")
	flag.StringVar(&o.child, "child", "", "internal: run as a measuring process (rep, traced, ladder)")
	flag.Parse()
	if o.outDir == "" {
		o.outDir = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			o.outDir = filepath.Join("benchmark", "out")
		}
	}
	o.scale *= o.seconds / nominalSeconds

	switch {
	case o.compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare a.json b.json")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case o.child != "":
		runChild(o)
	case o.workload != "":
		if _, ok := findWorkload(o.workload); !ok {
			fatal("unknown workload %q", o.workload)
		}
		os.Exit(runDriver(o))
	default:
		os.Exit(runFull(o))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// runChild is one measuring process. It prints its result as one JSON
// line on standard output.
func runChild(o options) {
	enc := json.NewEncoder(os.Stdout)
	if o.child == "ladder" {
		if err := enc.Encode(runLadder(o.seed, o.scale)); err != nil {
			fatal("%v", err)
		}
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fatal("unknown workload %q", o.workload)
	}
	b := newBench(childConfig{workload: o.workload, seed: o.seed, scale: o.scale, traced: o.child == "traced"})
	var root int32
	if b.cfg.traced {
		b.tr = newTracer()
		root = b.tr.begin(spWorkload)
	}
	w.run(b)
	if b.tr != nil {
		b.tr.end(root, 0)
		if err := b.tr.write(o.outDir, o.workload, o.seed); err != nil {
			fatal("writing trace: %v", err)
		}
	}
	if err := enc.Encode(b.finish()); err != nil {
		fatal("%v", err)
	}
}
