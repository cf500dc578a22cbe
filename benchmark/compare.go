package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// -compare a.json b.json is the twin-run check (two runs of one
// commit) and the parent-versus-change check later PRs use: for every
// workload and end-to-end metric it prints a, b, the change with its
// base, the bound and a verdict, and exits non-zero when b is worse
// than a by more than the bound.

func loadResults(path string) resultsFile {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		fatal("%s: %v", path, err)
	}
	return f
}

// worse is the change from a to b as a share of a, signed so that
// positive means worse.
func worse(m metricDef, a, b float64) float64 {
	d := b - a
	if a != 0 {
		d /= a // a count that was 0 has no share to take: its growth is reported whole
	}
	if m.Better == higher {
		d = -d
	}
	return d
}

// spread is the widest rep-to-rep range of either side, as a share of
// its median.
func spread(vs ...metricValue) float64 {
	s := 0.0
	for _, v := range vs {
		if len(v.Reps) > 1 && v.Value != 0 {
			s = max(s, (slices.Max(v.Reps)-slices.Min(v.Reps))/v.Value)
		}
	}
	return s
}

// separated reports whether every rep of b reads better (sign -1) or
// worse (sign +1) than every rep of a.
func separated(m metricDef, a, b metricValue, sign float64) bool {
	if len(a.Reps) == 0 || len(b.Reps) == 0 {
		return false
	}
	for _, x := range a.Reps {
		for _, y := range b.Reps {
			if worse(m, x, y)*sign <= 0 {
				return false
			}
		}
	}
	return true
}

func verdict(m metricDef, a, b metricValue) string {
	d := worse(m, a.Value, b.Value)
	if m.Exact {
		switch {
		case d > 0:
			return "regressed"
		case d < 0:
			return "improved"
		}
		return "ok"
	}
	wide := spread(a, b) > m.Bound
	switch {
	case d > m.Bound && (!wide || separated(m, a, b, +1)):
		return "regressed"
	case d > m.Bound:
		return "unresolved"
	case wide && !separated(m, a, b, -1):
		return "unresolved"
	case d < -m.Bound:
		return "improved"
	}
	return "ok"
}

func compareFiles(pathA, pathB string) int {
	a, b := loadResults(pathA), loadResults(pathB)
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Printf("warning: seed/scale differ (a: %d/%g, b: %d/%g); exact counts need not agree\n",
			a.Seed, a.Scale, b.Seed, b.Scale)
	}
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, w := range workloadDefs {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range endToEnd {
			va, okA := wa.Metrics[m.Name]
			vb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, va, vb)
			bound := fmt.Sprintf("%.2f", m.Bound)
			if m.Exact {
				bound = "exact"
			}
			// The change is (b-a)/a: its base is a.
			fmt.Printf("%-14s %-26s %14.6g %14.6g %+8.2f%% %7s  %s\n",
				w.Name, m.Name, va.Value, vb.Value, 100*(vb.Value-va.Value)/nonZero(va.Value), bound, v)
			switch v {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
		}
	}
	fmt.Printf("%d regressed, %d unresolved (change is (b-a)/a; unresolved: rep-to-rep spread wider than the bound)\n",
		regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
