package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// procStart anchors both the benchmark clock and setup_s: package
// initialisation runs within a millisecond of process start.
var procStart = time.Now()

// now is the benchmark clock, in nanoseconds since process start. It
// reads only the monotonic clock (one vDSO call, ~35 ns on the
// reference box), which is why verb timings chain their timestamps
// instead of bracketing every call with two reads.
func now() int64 { return int64(time.Since(procStart)) }

// mix64 is the splitmix64 finaliser: a cheap bijection on uint64 that
// turns (seed, sequence number) into a payload word the consumer can
// recompute, so one comparison checks order and content together.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// median returns the median of vs (0 when empty). vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation
// between order statistics (0 when empty). vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// iqrShare is the distance between the first and third quartile of vs
// as a share of its median: the spread measure the noise guard and
// -compare use.
func iqrShare(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / m
}

// rankOf returns the sample at rank q of an ascending-sorted sample
// set, the highest-rank convention percentiles of call latencies use.
func rankOf(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
