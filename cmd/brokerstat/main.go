// Command brokerstat runs one scenario of verify.BrokerScenarios —
// broker-membership-churn, at a fixed seed — with the observability
// layer attached and dumps the resulting snapshot: per-op latency
// summaries, per-topic counters, depth and allocator footprint
// (nvram_areas, nvram_free_slots), per-group shard lag and membership
// counters, and per-heap persist statistics, in a machine-readable
// format. The scenario's crashed broker and the one recovered from it
// report to the same observer, so the snapshot spans a power loss and
// a recovery.
//
// It exposes the raw obs.Snapshot so export pipelines (Prometheus
// scrapers, JSON collectors) can be developed and smoke-tested against
// real output.
//
//	go run ./cmd/brokerstat                      # Prometheus text format
//	go run ./cmd/brokerstat -format json         # indented JSON
//	go run ./cmd/brokerstat -selfcheck           # validate both formats
//
// -selfcheck renders the snapshot in both formats into memory, checks
// the JSON round-trips through encoding/json and the Prometheus text
// passes obs.ValidatePrometheus, and — because the scenario's prologue
// deterministically fences one member — requires non-zero fenced-ack
// and scan counters; it exits non-zero on any failure. CI uses it as
// the export-format smoke test.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/verify"
)

// The scenario whose snapshot is exported: it registers every family
// of series (acked topics, a leased group with its membership
// counters, two heaps), and its seed is fixed so two runs arm the same
// power loss.
const (
	scenario = "broker-membership-churn"
	seed     = 1
)

func main() {
	var (
		format    = flag.String("format", "prom", "output format: prom (Prometheus text) or json")
		selfcheck = flag.Bool("selfcheck", false, "validate both export formats instead of printing one")
	)
	flag.Parse()
	if *format != "prom" && *format != "json" {
		fmt.Fprintf(os.Stderr, "brokerstat: unknown -format %q (want prom or json)\n", *format)
		os.Exit(2)
	}

	snap, err := observe()
	switch {
	case err != nil:
	case *selfcheck:
		if err = check(snap); err == nil {
			fmt.Printf("brokerstat: selfcheck ok (%d ops, %d topics, %d groups, %d heaps)\n",
				len(snap.Ops), len(snap.Topics), len(snap.Groups), len(snap.Heaps))
		}
	case *format == "json":
		err = snap.WriteJSON(os.Stdout)
	default:
		err = snap.WritePrometheus(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "brokerstat: %v\n", err)
		os.Exit(1)
	}
}

// observe runs the scenario with an observer attached and returns what
// the observer saw; the scenario's own audit must pass.
func observe() (obs.Snapshot, error) {
	for _, sc := range verify.BrokerScenarios {
		if sc.Name == scenario {
			o := obs.New(obs.Config{Threads: sc.Threads})
			_, err := sc.Run(seed, o)
			return o.Snapshot(), err
		}
	}
	return obs.Snapshot{}, fmt.Errorf("no scenario %q in verify.BrokerScenarios", scenario)
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
	// The membership counters must be present in both exports, and the
	// two the scenario's prologue drives — a scan that fences member 1,
	// whose stale ack is then refused — must have counted.
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
	var fenced, scans uint64
	for _, g := range snap.Groups {
		fenced += g.FencedAcks
		scans += g.Scans
	}
	if fenced == 0 || scans == 0 {
		return fmt.Errorf("membership counters did not count across %d groups: broker_group_fenced_acks_total %d, broker_group_scans_total %d",
			len(snap.Groups), fenced, scans)
	}
	return nil
}
