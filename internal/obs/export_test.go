package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/pmem"
)

// observedFixture builds an observer with a little of everything so
// export paths all have data to render.
func observedFixture() *Observer {
	o := New(Config{Threads: 2, TraceEvents: 16})
	ts := o.RegisterTopic("orders", 2)
	g := o.RegisterGroup()
	c0 := g.AddShard(ts, 0)
	g.AddShard(ts, 1)
	for i := 0; i < 50; i++ {
		start := Now() - int64(1000*(i+1))
		ts.Published(i%2, 1)
		o.Lat(i%2, OpPublish, start)
	}
	ts.Delivered(30)
	ts.Acked(20)
	ts.Redelivered(5)
	ts.SetNVRAM(func() (areas, freeSlots int) { return 3, 4000 })
	c0.Advance(10)
	o.SetHeapStats(func() []pmem.Stats {
		return []pmem.Stats{{Fences: 42, NTStores: 7, Flushes: 3, PostFlushAccesses: 1}}
	})
	return o
}

func TestSnapshotContents(t *testing.T) {
	s := observedFixture().Snapshot()
	pub, ok := s.Op("publish")
	if !ok || pub.Count != 50 {
		t.Fatalf("publish op = %+v ok=%v, want count 50", pub, ok)
	}
	if pub.P50Ns <= 0 || pub.P99Ns < pub.P50Ns || pub.P999Ns < pub.P99Ns {
		t.Fatalf("quantiles not monotone: %+v", pub)
	}
	if _, ok := s.Op("nope"); ok {
		t.Fatal("unknown op reported present")
	}
	if len(s.Topics) != 1 {
		t.Fatalf("topics = %d, want 1", len(s.Topics))
	}
	top := s.Topics[0]
	if top.Published != 50 || top.Delivered != 30 || top.Acked != 20 || top.Redelivered != 5 {
		t.Fatalf("topic counters = %+v", top)
	}
	// depth = published − (delivered − redelivered) = 50 − 25.
	if top.Depth != 25 {
		t.Fatalf("depth = %d, want 25", top.Depth)
	}
	if top.NVRAMAreas != 3 || top.NVRAMFreeSlots != 4000 {
		t.Fatalf("footprint = %d areas, %d free slots, want 3 and 4000", top.NVRAMAreas, top.NVRAMFreeSlots)
	}
	if len(s.Groups) != 1 || len(s.Groups[0].Shards) != 2 {
		t.Fatalf("groups = %+v", s.Groups)
	}
	// Shard 0: 25 published, frontier 10 → lag 15; shard 1: lag 25.
	byShard := map[int]ShardLag{}
	for _, l := range s.Groups[0].Shards {
		byShard[l.Shard] = l
	}
	if byShard[0].Lag != 15 || byShard[1].Lag != 25 {
		t.Fatalf("lags = %+v", byShard)
	}
	if s.Groups[0].MaxLag != 25 {
		t.Fatalf("max lag = %d, want 25", s.Groups[0].MaxLag)
	}
	if len(s.Heaps) != 1 || s.Heaps[0].Fences != 42 || s.Heaps[0].NTStores != 7 {
		t.Fatalf("heaps = %+v", s.Heaps)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	s := observedFixture().Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(back.Ops) != int(NumOps) || back.Topics[0].Published != 50 || back.Topics[0].NVRAMAreas != 3 {
		t.Fatalf("round-trip lost data: %+v", back)
	}
}

func TestWritePrometheusValidates(t *testing.T) {
	s := observedFixture().Snapshot()
	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`broker_op_latency_seconds{op="publish",quantile="0.99"}`,
		`broker_op_latency_seconds_count{op="publish"} 50`,
		`broker_topic_published_total{topic="orders"} 50`,
		`broker_topic_depth{topic="orders"} 25`,
		`broker_topic_nvram_areas{topic="orders"} 3`,
		`broker_topic_nvram_free_slots{topic="orders"} 4000`,
		`broker_group_shard_lag{group="group-0",topic="orders",shard="1"} 25`,
		`broker_heap_fences_total{heap="0"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-rendered output fails validation: %v\n%s", err, out)
	}
	// An observer with no heap provider still renders valid output.
	bare := New(Config{Threads: 1})
	buf.Reset()
	if err := bare.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("bare output fails validation: %v", err)
	}
}

func TestValidatePrometheusRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "orphan_metric 1\n",
		"bad name":       "# TYPE 9bad counter\n9bad 1\n",
		"bad value":      "# TYPE m counter\nm not-a-number\n",
		"unclosed label": "# TYPE m counter\nm{a=\"x 1\n",
		"bad label name": "# TYPE m counter\nm{9=\"x\"} 1\n",
		"unknown type":   "# TYPE m widget\nm 1\n",
		"bare comment":   "#TYPE m counter\n",
	}
	for name, in := range cases {
		if err := ValidatePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %q", name, in)
		}
	}
	// Valid corner cases must pass: timestamps, escaped quotes, blanks.
	good := "# HELP m help text\n# TYPE m gauge\n\nm{a=\"he said \\\"hi\\\"\"} 1.5 1700000000\nm 2\n"
	if err := ValidatePrometheus(strings.NewReader(good)); err != nil {
		t.Errorf("validator rejected valid input: %v", err)
	}
}

func TestRegisterTopicDedupes(t *testing.T) {
	o := New(Config{Threads: 1})
	a := o.RegisterTopic("t", 2)
	a.Published(1, 3)
	b := o.RegisterTopic("t", 4) // recovered broker, more shards
	if a != b {
		t.Fatal("re-registration created a duplicate TopicStats")
	}
	if got := b.ShardPublished(1); got != 3 {
		t.Fatalf("counter lost across re-registration: %d", got)
	}
	if len(o.Snapshot().Topics) != 1 {
		t.Fatal("duplicate topic series in snapshot")
	}
	b.Published(3, 1) // the grown shard is addressable
}
