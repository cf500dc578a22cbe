// Command brokerbench sweeps the sharded durable message broker
// (internal/broker) over shard counts, heap-set sizes, publish batch
// sizes and dequeue batch sizes, and prints throughput plus the
// per-message persist statistics that justify the design: the
// batch-publish path rides one SFENCE per batch, so producer fences
// per message drop toward 1/batch, and the batch-dequeue path
// (PollBatch) mirrors it on the consume side — one fence per
// persistence domain covers a whole poll batch even when it spans
// several shards, so consumer fences per message drop toward 1/dbatch.
// The idle column shows the empty-poll fence elision: a consumer
// polling only empty shards at an already-persisted head index issues
// no persists at all (~0 fences per idle poll, where each poll scans
// every owned shard). The heap-imbal column shows how evenly shard
// placement spread persist traffic across the heap set (1.0 =
// balanced); -affine switches to block placement plus heap-affine
// consumer groups so each consumer fences a single domain. -latency
// attaches an obs.Observer (costing no persist instructions) and adds
// p50/p99/p999 per-op latency columns — publish, poll (non-empty) and
// ack — in microseconds; without the flag the latency columns are
// zero in -csv and omitted from the table.
//
// The tail-latency dimensions sweep like -ack: -abatch swaps the fixed
// publish/drain window sizes for AIMD policies adapting between 1 and
// batch/dbatch, -pipeline defers each publish window's fence into the
// next flush (and, with -poller in ack cells, acks via AckAsync), and
// -poller runs consumers as backoff event loops instead of busy
// spinners. -pgap spaces producer arrivals to model an idle topic; any
// non-zero gap routes producers through the buffering Publisher so the
// soj-µs columns — the publish *sojourn* from a message's arrival to
// its durable acknowledgment, reported regardless of -latency — show
// what batching policy does to an idle topic's tail.
//
// A cell is traffic only. What perturbs a broker beside the traffic —
// kills, membership churn, live topic creation and retirement, heap
// topics — is a scenario of verify.BrokerScenarios (`crashfuzz -smoke`).
//
// Examples:
//
//	brokerbench -shards 1,2,4,8 -batch 1,16 -dbatch 1,8
//	brokerbench -batch 8 -dbatch 8 -abatch 0,1 -pgap 200000  # idle tail: fixed vs adaptive
//	brokerbench -batch 8 -pipeline 0,1           # pipelined persists
//	brokerbench -ack 1 -poller 1 -pipeline 1     # event-loop consumers, async acks
//	brokerbench -heaps 1,2,4              # sweep NVRAM domains
//	brokerbench -heaps 2 -affine          # heap-affine consumers
//	brokerbench -heaps 2 -heaplat 100,300  # asymmetric NUMA: per-heap fence ns
//	brokerbench -ack 0,1                  # acked/leased delivery vs at-least-once
//	brokerbench -topics 4 -producers 8 -consumers 4 -payload 64
//	brokerbench -nvm-fence-ns 500        # Optane-like fence cost
//	brokerbench -latency                 # per-op p50/p99/p999 latency columns
//	brokerbench -csv  > sweep.csv        # machine-readable, one row per cell
//
// The sweep is informational: its timings are this machine's, and the
// persist counts it prints are pinned exactly by the broker package's
// *FenceAccounting / *FenceRegimes tests. CI archives the CSV; nothing
// gates on it. Every workload flag is a sweep dimension taking a
// comma-separated list (the dims table; the machine flags -heap-mb,
// -nvm-fence-ns, -heaplat, -affine and -duration hold for the whole
// sweep) and every output a column (the columns table).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/pmem"
)

type config = harness.BrokerConfig

// dim is one sweep dimension: an integer-list flag and how a value of
// it lands in the cell's configuration. The sweep runs the cartesian
// product of all dimensions, the first varying slowest, so adding a
// dimension is one entry here plus the BrokerConfig field it sets.
type dim struct {
	name, def, help string
	set             func(c *config, v int)
}

var dims = []dim{
	{"topics", "2", "number of topics", func(c *config, v int) { c.Topics = v }},
	{"producers", "4", "producer threads", func(c *config, v int) { c.Producers = v }},
	{"consumers", "2", "consumer threads", func(c *config, v int) { c.Consumers = v }},
	{"payload", "0", "payload bytes (0 = fixed 8-byte messages)", func(c *config, v int) { c.Payload = v }},
	{"shards", "1,2,4,8", "comma-separated shard counts per topic to sweep", func(c *config, v int) { c.Shards = v }},
	{"heaps", "1", "comma-separated heap-set sizes to sweep (NVRAM domains)", func(c *config, v int) { c.Heaps = v }},
	{"batch", "1,16", "comma-separated publish batch sizes to sweep", func(c *config, v int) { c.Batch = v }},
	{"dbatch", "1,8", "comma-separated dequeue (poll) batch sizes to sweep", func(c *config, v int) { c.DequeueBatch = v }},
	{"ack", "0", "comma-separated ack modes to sweep (0 = at-least-once, 1 = acked/leased delivery)", func(c *config, v int) { c.Ack = v != 0 }},
	{"abatch", "0", "comma-separated adaptive-batch modes to sweep (0 = fixed windows, 1 = AIMD)", func(c *config, v int) { c.AdaptiveBatch = v != 0 }},
	{"pipeline", "0", "comma-separated pipeline modes to sweep (0 = fence per flush, 1 = fence deferred into next flush)", func(c *config, v int) { c.Pipeline = v != 0 }},
	{"poller", "0", "comma-separated consumer modes to sweep (0 = busy poll loop, 1 = backoff event loop)", func(c *config, v int) { c.Poller = v != 0 }},
	{"pgap", "0", "comma-separated ns between message arrivals per producer to sweep (0 = saturating; >0 models an idle topic)", func(c *config, v int) { c.ProduceGapNs = int64(v) }},
}

func main() {
	if err := sweep(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "brokerbench:", err)
		os.Exit(1)
	}
}

// sweep parses the flags, expands the dimensions into cells, runs
// every cell and reports it on out as it finishes.
func sweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("brokerbench", flag.ExitOnError)
	lists := make([]*string, len(dims))
	for i, d := range dims {
		lists[i] = fs.String(d.name, d.def, d.help)
	}
	var (
		affine   = fs.Bool("affine", false, "heap-affine deployment: block placement + affine consumer groups")
		heaplat  = fs.String("heaplat", "", "comma-separated per-heap SFENCE ns (asymmetric NUMA; heap i takes entry i mod len)")
		duration = fs.Duration("duration", time.Second, "produce phase duration per cell")
		heapMB   = fs.Int64("heap-mb", 512, "persistent heap size in MiB")
		fenceNs  = fs.Int64("nvm-fence-ns", 120, "SFENCE latency")
		latency  = fs.Bool("latency", false, "attach an observer and report per-op p50/p99/p999 latencies (µs)")
		csvOut   = fs.Bool("csv", false, "emit CSV instead of a table")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits inside Parse

	base := config{
		Affine: *affine, Duration: *duration, HeapBytes: *heapMB << 20,
		Latency: pmem.DefaultLatency(), Observe: *latency,
	}
	base.Latency.FenceNs = *fenceNs
	if *heaplat != "" {
		ns, err := parseInts(*heaplat)
		if err != nil {
			return fmt.Errorf("-heaplat: %w", err)
		}
		for _, n := range ns {
			base.HeapFenceNs = append(base.HeapFenceNs, int64(n))
		}
	}
	cells := []config{base}
	for i, d := range dims {
		vals, err := parseInts(*lists[i])
		if err != nil {
			return fmt.Errorf("-%s: %w", d.name, err)
		}
		expanded := make([]config, 0, len(cells)*len(vals))
		for _, c := range cells {
			for _, v := range vals {
				d.set(&c, v)
				expanded = append(expanded, c)
			}
		}
		cells = expanded
	}

	line := csvLine
	if !*csvOut {
		line = func(r *result) string { return tableLine(r, *latency) }
		fmt.Fprint(out, "broker sweep:")
		fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(out, " %s=%s", f.Name, f.Value) })
		fmt.Fprint(out, "\n\n")
	}
	fmt.Fprintln(out, line(nil))
	for _, c := range cells {
		r, err := harness.RunBroker(c)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, line(&r))
	}
	if !*csvOut {
		legend(out, *latency)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", f, err)
		}
		out = append(out, n)
	}
	return out, nil
}
