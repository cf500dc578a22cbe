package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// metricValue is one reported metric: the median over reps, the unit,
// the number of calls behind a percentile, and the per-rep values that
// -compare takes its spread from.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int64     `json:"samples,omitempty"`
	Reps    []float64 `json:"reps,omitempty"`
}

type workloadResult struct {
	Workload      string                 `json:"workload"`
	Correct       bool                   `json:"correct"`
	Attempted     int64                  `json:"attempted"`
	Failed        int64                  `json:"failed"`
	RepsDiscarded int                    `json:"reps_discarded"`
	Violations    []string               `json:"violations,omitempty"`
	Metrics       map[string]metricValue `json:"metrics"`
}

// resultsFile is what a full pass writes and -compare reads.
type resultsFile struct {
	Seed      int64                      `json:"seed"`
	Scale     float64                    `json:"scale"`
	Reps      int                        `json:"reps"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// Noise guard thresholds: a rep whose spin calibration is off, or
// whose rounds disagree among themselves, measured the machine's bad
// stretch and is run again, at most maxDiscards times per workload.
const (
	maxSpinError = 0.08
	maxRoundIQR  = 0.25
	maxDiscards  = 2
)

// spawn runs one measuring process and decodes the line it prints.
func spawn(o options, kind, workload string, into any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-seconds", strconv.Itoa(nominalSeconds), "-out", o.outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w", kind, workload, err)
	}
	return json.Unmarshal(bytes.TrimSpace(out.Bytes()), into)
}

func noisy(r repResult) bool {
	return math.Abs(r.SpinRatio-1) > maxSpinError || r.RoundIQR > maxRoundIQR
}

// measure runs the reps of one pass of one workload, rerunning noisy
// ones, and reduces them: a measured metric is the undisturbed quartile
// over reps (see engine.go) of the per-process figures; a count must be
// identical in every rep.
func measure(o options, workload, kind string, reps int) (*workloadResult, error) {
	var good []repResult
	wr := &workloadResult{Workload: workload, Metrics: map[string]metricValue{}}
	for len(good) < reps {
		var r repResult
		if err := spawn(o, kind, workload, &r); err != nil {
			return nil, err
		}
		if noisy(r) && wr.RepsDiscarded < maxDiscards && r.Failed == 0 {
			wr.RepsDiscarded++
			fmt.Fprintf(os.Stderr, "benchmark: %s rep discarded: spin calibration ratio %.3f, round IQR/median %.3f\n",
				workload, r.SpinRatio, r.RoundIQR)
			continue
		}
		good = append(good, r)
	}
	for _, r := range good {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.Violations = append(wr.Violations, r.Violations...)
	}
	for name := range good[0].Values {
		def, ok := findMetric(name)
		if !ok {
			return nil, fmt.Errorf("%s reported %q, which metrics.go does not define", workload, name)
		}
		mv := metricValue{Unit: def.Unit, Samples: good[0].Samples[name]}
		for _, r := range good {
			mv.Reps = append(mv.Reps, r.Values[name])
		}
		mv.Value = quantile(mv.Reps, fastLatency)
		if def.Better == higher {
			mv.Value = quantile(mv.Reps, fastRate)
		}
		if def.Exact {
			for _, v := range mv.Reps {
				if v != mv.Reps[0] {
					wr.Failed++
					wr.Violations = append(wr.Violations, fmt.Sprintf("%s differs across reps: %v", name, mv.Reps))
					break
				}
			}
		}
		wr.Metrics[name] = mv
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

// tracedPass produces the per-layer metrics of one workload: the
// ladder rungs, one traced rep, and the tracing overhead against the
// untraced figure.
func tracedPass(o options, workload string, ladder map[string]float64, untraced *workloadResult) (*workloadResult, error) {
	wr, err := measure(o, workload, "traced", 1)
	if err != nil {
		return nil, err
	}
	if base := untraced.Metrics["msgs_per_s"].Value; base > 0 {
		wr.Metrics["trace.overhead_share"] = metricValue{Value: 1 - wr.Metrics["msgs_per_s"].Value/base}
	}
	// The end-to-end metrics that not every workload has are printed
	// with this pass, from the untraced measurement.
	for _, m := range endToEnd {
		if !m.Driver {
			wr.Metrics[m.Name] = untraced.Metrics[m.Name]
		}
	}
	for name, v := range ladder {
		wr.Metrics[name] = metricValue{Value: v}
	}
	out := map[string]metricValue{}
	for _, m := range tracedNames() {
		mv := wr.Metrics[m.Name] // zero where the workload has no such verb
		mv.Unit = m.Unit
		out[m.Name] = mv
	}
	wr.Metrics = out
	wr.Attempted += untraced.Attempted
	wr.Failed += untraced.Failed
	wr.Violations = append(wr.Violations, untraced.Violations...)
	wr.Correct = wr.Failed == 0
	return wr, nil
}

func printResult(wr *workloadResult, defs []metricDef) {
	fmt.Printf("%s: correct=%v attempted=%d failed=%d reps_discarded=%d\n",
		wr.Workload, wr.Correct, wr.Attempted, wr.Failed, wr.RepsDiscarded)
	for _, v := range wr.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	for _, m := range defs {
		mv, ok := wr.Metrics[m.Name]
		if !ok {
			continue
		}
		n := ""
		if mv.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", mv.Samples)
		}
		fmt.Printf("  %-40s %16.6g %-8s%s\n", m.Name, mv.Value, mv.Unit, n)
	}
}

// lastLine prints the result in the form the driver reads.
func lastLine(wr *workloadResult, defs []metricDef) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range defs {
		metrics[m.Name] = mv{wr.Metrics[m.Name].Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": max(wr.Attempted, 1), "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
}

func exitCode(wrs ...*workloadResult) int {
	for _, wr := range wrs {
		if !wr.Correct {
			return 1 // an audit violation is the one thing that fails a run
		}
	}
	return 0
}

// spawnLadder runs the per-layer micro-rungs in a process of their own.
func spawnLadder(o options) map[string]float64 {
	var ladder map[string]float64
	if err := spawn(o, "ladder", "", &ladder); err != nil {
		fatal("%v", err)
	}
	return ladder
}

// runDriver is the one-workload form: -trace 0 prints the end-to-end
// metrics every workload has, -trace 1 everything else.
func runDriver(o options) int {
	if o.trace == 1 {
		ladder := spawnLadder(o)
		untraced, err := measure(o, o.workload, "rep", 1)
		if err != nil {
			fatal("%v", err)
		}
		wr, err := tracedPass(o, o.workload, ladder, untraced)
		if err != nil {
			fatal("%v", err)
		}
		printResult(wr, tracedNames())
		lastLine(wr, tracedNames())
		return exitCode(wr)
	}
	wr, err := measure(o, o.workload, "rep", o.reps)
	if err != nil {
		fatal("%v", err)
	}
	printResult(wr, endToEnd)
	lastLine(wr, driverMetrics())
	return exitCode(wr)
}

// runFull is the form people run: every workload, the untraced pass
// then the traced one, one results file.
func runFull(o options) int {
	file := resultsFile{Seed: o.seed, Scale: o.scale, Reps: o.reps, Workloads: map[string]*workloadResult{}}
	var all []*workloadResult
	if o.trace != 1 {
		for _, w := range workloadDefs {
			wr, err := measure(o, w.Name, "rep", o.reps)
			if err != nil {
				fatal("%v", err)
			}
			printResult(wr, endToEnd)
			file.Workloads[w.Name] = wr
			all = append(all, wr)
		}
	}
	if o.trace != 0 {
		ladder := spawnLadder(o)
		for _, w := range workloadDefs {
			untraced := file.Workloads[w.Name]
			if untraced == nil {
				var err error
				if untraced, err = measure(o, w.Name, "rep", 1); err != nil {
					fatal("%v", err)
				}
				file.Workloads[w.Name] = untraced
			}
			wr, err := tracedPass(o, w.Name, ladder, untraced)
			if err != nil {
				fatal("%v", err)
			}
			printResult(wr, tracedNames())
			for name, mv := range wr.Metrics {
				if _, dup := untraced.Metrics[name]; !dup {
					untraced.Metrics[name] = mv
				}
			}
			all = append(all, wr)
		}
	}
	path := o.results
	if path == "" {
		path = filepath.Join(o.outDir, "results.json")
	}
	if err := writeResults(path, file); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("results written to %s\n", path)
	return exitCode(all...)
}

func writeResults(path string, file resultsFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
