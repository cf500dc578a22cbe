package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// The measuring processes are copies of the running binary. Under go
// test that binary is the test binary, so it has to turn into the
// benchmark when it is started as one.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		return
	}
	os.Exit(m.Run())
}

const smokeScale = 0.01

func smokeOptions(t *testing.T) options {
	return options{seed: 1, scale: smokeScale, reps: 1, outDir: t.TempDir()}
}

type contract struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// BENCHMARK.json repeats metrics.go; the two must not drift apart.
func TestContractMatchesTables(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.go %d", len(c.Workloads), len(workloadDefs))
	}
	for i, w := range c.Workloads {
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %+v in metrics.go", i, w, d)
		}
	}
	uni := driverMetrics()
	if len(c.EndToEnd) != len(uni) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, metrics.go %d", len(c.EndToEnd), len(uni))
	}
	for i, m := range c.EndToEnd {
		if d := uni[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
	}
	traced := tracedNames()
	if len(c.PerLayer) != len(traced) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.go %d", len(c.PerLayer), len(traced))
	}
	for i, m := range c.PerLayer {
		if d := traced[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in metrics.go", i, m, d)
		}
	}
}

// Every workload completes a smoke run quickly, reports every metric
// BENCHMARK.json names with a finite value and a unit, passes its own
// audit, and repeats its exact counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns measuring processes")
	}
	c := loadContract(t)
	o := smokeOptions(t)
	first := map[string]*workloadResult{}
	start := time.Now()
	for _, w := range workloadDefs {
		wr, err := measure(o, w.Name, "rep", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Correct {
			t.Errorf("%s: audit failed: %v", w.Name, wr.Violations)
		}
		first[w.Name] = wr
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("six smoke runs took %v, want under 10 s", d)
	}

	var ladder map[string]float64
	if err := spawn(o, "ladder", "", &ladder); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadDefs {
		untraced := first[w.Name]
		for _, m := range c.EndToEnd {
			checkMetric(t, w.Name, m.Name, m.Unit, untraced.Metrics, false)
		}
		traced, err := tracedPass(o, w.Name, ladder, untraced)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range c.PerLayer {
			checkMetric(t, w.Name, m.Name, m.Unit, traced.Metrics, true)
		}
		if _, err := os.Stat(o.outDir + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}

		again, err := measure(o, w.Name, "rep", 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"fences_per_msg", "pflush_per_msg", "nvram_bytes_per_msg"} {
			if a, b := untraced.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s read %v, then %v", w.Name, name, a, b)
			}
		}
	}
}

func checkMetric(t *testing.T, workload, name, unit string, got map[string]metricValue, zeroOK bool) {
	t.Helper()
	mv, ok := got[name]
	switch {
	case !ok:
		t.Errorf("%s: %s missing", workload, name)
	case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
		t.Errorf("%s: %s = %v", workload, name, mv.Value)
	case mv.Unit != unit || unit == "":
		t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, name, mv.Unit, unit)
	case mv.Value == 0 && !zeroOK:
		t.Errorf("%s: end-to-end metric %s is 0", workload, name)
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "msgs_per_s", Better: higher, Bound: 0.10}
	count := metricDef{Name: "fences_per_msg", Better: lower, Exact: true}
	mv := func(v float64, reps ...float64) metricValue { return metricValue{Value: v, Reps: reps} }
	for _, tc := range []struct {
		m    metricDef
		a, b metricValue
		want string
	}{
		{rate, mv(100, 99, 100, 101), mv(98, 97, 98, 99), "ok"},
		{rate, mv(100, 99, 100, 101), mv(80, 79, 80, 81), "regressed"},
		{rate, mv(100, 99, 100, 101), mv(120, 119, 120, 121), "improved"},
		{rate, mv(100, 80, 100, 120), mv(85, 70, 85, 110), "unresolved"},   // worse, but the reps overlap
		{rate, mv(100, 80, 100, 120), mv(101, 85, 101, 125), "unresolved"}, // unchanged, but too noisy to say so
		{rate, mv(100, 80, 100, 120), mv(60, 50, 60, 70), "regressed"},     // noisy, yet every rep is worse
		{count, mv(0.25), mv(0.25), "ok"},
		{count, mv(0.25), mv(0.2501), "regressed"},
		{count, mv(0.25), mv(0.2499), "improved"},
		{count, mv(0), mv(0.001), "regressed"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
}
