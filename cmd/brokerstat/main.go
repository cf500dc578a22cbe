// Command brokerstat runs one short canned broker workload with the
// observability layer enabled and dumps the resulting snapshot — per-op
// latency summaries, per-topic counters, depth and allocator footprint
// (nvram_areas, nvram_free_slots), per-group shard lag and per-heap
// persist statistics — in a machine-readable format.
//
// It is the one-shot companion to cmd/brokerbench: where brokerbench
// sweeps configurations and reports derived per-message rates,
// brokerstat exposes the raw obs.Snapshot so export pipelines
// (Prometheus scrapers, JSON collectors) can be developed and smoke-
// tested against real output.
//
//	go run ./cmd/brokerstat                      # Prometheus text format
//	go run ./cmd/brokerstat -format json         # indented JSON
//	go run ./cmd/brokerstat -selfcheck           # validate both formats
//
// -selfcheck renders the snapshot in both formats into memory, checks
// the JSON round-trips through encoding/json and the Prometheus text
// passes obs.ValidatePrometheus, and exits non-zero on any failure; CI
// uses it as the export-format smoke test.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		format    = flag.String("format", "prom", "output format: prom (Prometheus text) or json")
		selfcheck = flag.Bool("selfcheck", false, "validate both export formats instead of printing one")
		duration  = flag.Duration("duration", 150*time.Millisecond, "workload duration")
		topics    = flag.Int("topics", 2, "topics in the canned workload")
		shards    = flag.Int("shards", 4, "shards per topic")
		heaps     = flag.Int("heaps", 2, "member heaps the broker spans")
		producers = flag.Int("producers", 2, "producer threads")
		consumers = flag.Int("consumers", 2, "consumer threads")
		ack       = flag.Bool("ack", true, "use acked topics and a leased group (exercises the ack op)")
		churn     = flag.Int("churn", 1, "membership-churn cycles mid-run (fills the group fenced/reassigned/stolen/scan counters; needs -ack and >= 2 consumers)")
		heapMB    = flag.Int("heapmb", 256, "per-heap arena size in MiB")
	)
	flag.Parse()
	if *format != "prom" && *format != "json" {
		fmt.Fprintf(os.Stderr, "brokerstat: unknown -format %q (want prom or json)\n", *format)
		os.Exit(2)
	}

	res, err := harness.RunBroker(harness.BrokerConfig{
		Topics: *topics, Shards: *shards, Heaps: *heaps,
		Producers: *producers, Consumers: *consumers,
		Batch: 4, DequeueBatch: 8, Ack: *ack, Churn: *churn,
		Duration: *duration, HeapBytes: int64(*heapMB) << 20,
		Observe: true,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "brokerstat: workload failed: %v\n", err)
		os.Exit(1)
	}
	snap := res.Latency
	if snap == nil {
		fmt.Fprintln(os.Stderr, "brokerstat: harness returned no snapshot")
		os.Exit(1)
	}

	if *selfcheck {
		if err := check(*snap); err != nil {
			fmt.Fprintf(os.Stderr, "brokerstat: selfcheck failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("brokerstat: selfcheck ok (%d ops, %d topics, %d groups, %d heaps)\n",
			len(snap.Ops), len(snap.Topics), len(snap.Groups), len(snap.Heaps))
		return
	}

	var werr error
	if *format == "json" {
		werr = snap.WriteJSON(os.Stdout)
	} else {
		werr = snap.WritePrometheus(os.Stdout)
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "brokerstat: %v\n", werr)
		os.Exit(1)
	}
}

// check renders the snapshot in both export formats and validates each:
// the JSON must round-trip through encoding/json back into an
// obs.Snapshot, the Prometheus text must pass the package's own
// text-format validator.
func check(snap obs.Snapshot) error {
	var jbuf bytes.Buffer
	if err := snap.WriteJSON(&jbuf); err != nil {
		return fmt.Errorf("WriteJSON: %w", err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		return fmt.Errorf("JSON does not round-trip: %w", err)
	}
	if len(back.Ops) != len(snap.Ops) || len(back.Topics) != len(snap.Topics) {
		return fmt.Errorf("JSON round-trip lost series: %d/%d ops, %d/%d topics",
			len(back.Ops), len(snap.Ops), len(back.Topics), len(snap.Topics))
	}
	var pbuf bytes.Buffer
	if err := snap.WritePrometheus(&pbuf); err != nil {
		return fmt.Errorf("WritePrometheus: %w", err)
	}
	if err := obs.ValidatePrometheus(bytes.NewReader(pbuf.Bytes())); err != nil {
		return fmt.Errorf("Prometheus text invalid: %w", err)
	}
	// So must the footprint gauges, for every topic: they are how a
	// per-message heap leak shows in the system's own output.
	for _, series := range []string{"broker_topic_nvram_areas{", "broker_topic_nvram_free_slots{"} {
		if n := bytes.Count(pbuf.Bytes(), []byte(series)); n != len(snap.Topics) {
			return fmt.Errorf("Prometheus text has %d %s...} samples for %d topics", n, series, len(snap.Topics))
		}
	}
	if !bytes.Contains(jbuf.Bytes(), []byte(`"nvram_areas"`)) {
		return fmt.Errorf("JSON missing the topic nvram_areas field")
	}
	// The membership counters must be present in both exports whenever
	// a group was observed (zero-valued is fine — churn cycles can be
	// skipped — missing is not).
	if len(snap.Groups) > 0 {
		for _, metric := range []string{
			"broker_group_fenced_acks_total",
			"broker_group_reassigned_shards_total",
			"broker_group_stolen_shards_total",
			"broker_group_scans_total",
		} {
			if !bytes.Contains(pbuf.Bytes(), []byte(metric)) {
				return fmt.Errorf("Prometheus text missing %s", metric)
			}
		}
		if !bytes.Contains(jbuf.Bytes(), []byte(`"fenced_acks"`)) {
			return fmt.Errorf("JSON missing the group fenced_acks field")
		}
	}
	return nil
}
