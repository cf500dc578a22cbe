package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Snapshot is one stable, self-contained view of an observer:
// per-op latency summaries, per-topic message gauges, per-group
// per-shard lag, and the per-heap persist counters re-exported from
// pmem.Stats. It marshals to JSON as-is and renders to Prometheus
// text format with WritePrometheus. Exact while the observed broker
// is quiescent; taken live it is a consistent-enough monitoring view
// (counters are read individually, never torn).
type Snapshot struct {
	Ops    []OpSnapshot    `json:"ops"`
	Topics []TopicSnapshot `json:"topics"`
	Groups []GroupSnapshot `json:"groups"`
	Heaps  []HeapSnapshot  `json:"heaps,omitempty"`
}

// OpSnapshot summarizes one operation kind's latency distribution.
type OpSnapshot struct {
	Op     string  `json:"op"`
	Count  uint64  `json:"count"`
	SumNs  uint64  `json:"sum_ns"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
}

// TopicSnapshot is one topic's message gauges and allocator footprint:
// a topic whose NVRAMAreas climbs while its NVRAMFreeSlots do is
// leaking slots it could be reusing.
type TopicSnapshot struct {
	Topic          string `json:"topic"`
	Published      uint64 `json:"published"`
	Delivered      uint64 `json:"delivered"`
	Acked          uint64 `json:"acked"`
	Redelivered    uint64 `json:"redelivered"`
	Depth          uint64 `json:"depth"`
	NVRAMAreas     uint64 `json:"nvram_areas"`
	NVRAMFreeSlots uint64 `json:"nvram_free_slots"`
}

// GroupSnapshot is one consumer group's lag state plus its
// membership-protocol counters.
type GroupSnapshot struct {
	Group      string     `json:"group"`
	MaxLag     uint64     `json:"max_lag"`
	FencedAcks uint64     `json:"fenced_acks"`
	Reassigned uint64     `json:"reassigned_shards"`
	Stolen     uint64     `json:"stolen_shards"`
	Scans      uint64     `json:"scans"`
	Shards     []ShardLag `json:"shards"`
}

// ShardLag is one shard's lag within a group: the published head
// minus the group's consumption frontier.
type ShardLag struct {
	Topic     string `json:"topic"`
	Shard     int    `json:"shard"`
	Published uint64 `json:"published"`
	Frontier  uint64 `json:"frontier"`
	Lag       uint64 `json:"lag"`
}

// HeapSnapshot re-exports one member heap's persist counters.
type HeapSnapshot struct {
	Heap              int    `json:"heap"`
	Fences            uint64 `json:"fences"`
	NTStores          uint64 `json:"ntstores"`
	Flushes           uint64 `json:"flushes"`
	PostFlushAccesses uint64 `json:"post_flush_accesses"`
}

// Snapshot assembles the current view.
func (o *Observer) Snapshot() Snapshot {
	var s Snapshot
	for op := Op(0); op < NumOps; op++ {
		h := o.OpHist(op)
		s.Ops = append(s.Ops, OpSnapshot{
			Op:     op.String(),
			Count:  h.Count,
			SumNs:  h.SumNs,
			MeanNs: h.MeanNs(),
			P50Ns:  h.Quantile(0.5),
			P99Ns:  h.Quantile(0.99),
			P999Ns: h.Quantile(0.999),
		})
	}
	o.mu.Lock()
	topics := append([]*TopicStats(nil), o.topics...)
	groups := append([]*GroupStats(nil), o.groups...)
	heapStats := o.heapStats
	o.mu.Unlock()
	for _, t := range topics {
		pub, del, ack, redel := t.Counts()
		areas, free := t.NVRAM()
		s.Topics = append(s.Topics, TopicSnapshot{
			Topic: t.name, Published: pub, Delivered: del, Acked: ack,
			Redelivered: redel, Depth: t.Depth(),
			NVRAMAreas: uint64(areas), NVRAMFreeSlots: uint64(free),
		})
	}
	for _, g := range groups {
		gs := GroupSnapshot{Group: g.name}
		gs.FencedAcks, gs.Reassigned, gs.Stolen, gs.Scans = g.Membership()
		g.mu.Lock()
		cursors := append([]*ShardCursor(nil), g.cursors...)
		g.mu.Unlock()
		for _, c := range cursors {
			l := ShardLag{
				Topic:     c.t.name,
				Shard:     int(c.shard),
				Published: c.t.ShardPublished(int(c.shard)),
				Frontier:  c.Frontier(),
			}
			if l.Published > l.Frontier {
				l.Lag = l.Published - l.Frontier
			}
			if l.Lag > gs.MaxLag {
				gs.MaxLag = l.Lag
			}
			gs.Shards = append(gs.Shards, l)
		}
		s.Groups = append(s.Groups, gs)
	}
	if heapStats != nil {
		for i, hs := range heapStats() {
			s.Heaps = append(s.Heaps, HeapSnapshot{
				Heap: i, Fences: hs.Fences, NTStores: hs.NTStores,
				Flushes: hs.Flushes, PostFlushAccesses: hs.PostFlushAccesses,
			})
		}
	}
	return s
}

// Op returns the summary of one operation kind by name.
func (s Snapshot) Op(name string) (OpSnapshot, bool) {
	for _, op := range s.Ops {
		if op.Op == name {
			return op, true
		}
	}
	return OpSnapshot{}, false
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus renders the snapshot in the Prometheus text-based
// exposition format (version 0.0.4): per-op latency summaries in
// seconds, topic message counters, topic depth and group lag gauges,
// and per-heap persist counters. The output passes
// ValidatePrometheus.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	b := bufio.NewWriter(w)
	fmt.Fprintln(b, "# HELP broker_op_latency_seconds Broker operation latency quantiles.")
	fmt.Fprintln(b, "# TYPE broker_op_latency_seconds summary")
	for _, op := range s.Ops {
		for _, q := range []struct {
			q  string
			ns float64
		}{{"0.5", op.P50Ns}, {"0.99", op.P99Ns}, {"0.999", op.P999Ns}} {
			fmt.Fprintf(b, "broker_op_latency_seconds{op=%q,quantile=%q} %g\n", op.Op, q.q, q.ns/1e9)
		}
		fmt.Fprintf(b, "broker_op_latency_seconds_sum{op=%q} %g\n", op.Op, float64(op.SumNs)/1e9)
		fmt.Fprintf(b, "broker_op_latency_seconds_count{op=%q} %d\n", op.Op, op.Count)
	}
	counter := func(name, help string, value func(TopicSnapshot) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range s.Topics {
			fmt.Fprintf(b, "%s{topic=%q} %d\n", name, t.Topic, value(t))
		}
	}
	counter("broker_topic_published_total", "Messages published per topic.",
		func(t TopicSnapshot) uint64 { return t.Published })
	counter("broker_topic_delivered_total", "Messages delivered per topic (redeliveries included).",
		func(t TopicSnapshot) uint64 { return t.Delivered })
	counter("broker_topic_acked_total", "Messages acknowledged per topic.",
		func(t TopicSnapshot) uint64 { return t.Acked })
	counter("broker_topic_redelivered_total", "Redeliveries per topic.",
		func(t TopicSnapshot) uint64 { return t.Redelivered })
	gauge := func(name, help string, value func(TopicSnapshot) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, t := range s.Topics {
			fmt.Fprintf(b, "%s{topic=%q} %d\n", name, t.Topic, value(t))
		}
	}
	gauge("broker_topic_depth", "Messages published but not yet delivered.",
		func(t TopicSnapshot) uint64 { return t.Depth })
	gauge("broker_topic_nvram_areas", "Designated ssmem areas registered by the topic's shards.",
		func(t TopicSnapshot) uint64 { return t.NVRAMAreas })
	gauge("broker_topic_nvram_free_slots", "Slots of those areas that hold no message.",
		func(t TopicSnapshot) uint64 { return t.NVRAMFreeSlots })
	fmt.Fprintln(b, "# HELP broker_group_shard_lag Published head minus group frontier per owned shard.")
	fmt.Fprintln(b, "# TYPE broker_group_shard_lag gauge")
	for _, g := range s.Groups {
		for _, l := range g.Shards {
			fmt.Fprintf(b, "broker_group_shard_lag{group=%q,topic=%q,shard=\"%d\"} %d\n",
				g.Group, l.Topic, l.Shard, l.Lag)
		}
	}
	groupCounter := func(name, help string, value func(GroupSnapshot) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, g := range s.Groups {
			fmt.Fprintf(b, "%s{group=%q} %d\n", name, g.Group, value(g))
		}
	}
	groupCounter("broker_group_fenced_acks_total", "Member ops refused with a stale lease epoch per group.",
		func(g GroupSnapshot) uint64 { return g.FencedAcks })
	groupCounter("broker_group_reassigned_shards_total", "Shards dealt off fenced members per group (Adopt/Scan).",
		func(g GroupSnapshot) uint64 { return g.Reassigned })
	groupCounter("broker_group_stolen_shards_total", "Expired shards claimed by work-stealing members per group.",
		func(g GroupSnapshot) uint64 { return g.Stolen })
	groupCounter("broker_group_scans_total", "Expiry-scanner passes per group.",
		func(g GroupSnapshot) uint64 { return g.Scans })
	heapCounter := func(name, help string, value func(HeapSnapshot) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, h := range s.Heaps {
			fmt.Fprintf(b, "%s{heap=\"%d\"} %d\n", name, h.Heap, value(h))
		}
	}
	if len(s.Heaps) > 0 {
		heapCounter("broker_heap_fences_total", "Blocking persists (SFENCE) per member heap.",
			func(h HeapSnapshot) uint64 { return h.Fences })
		heapCounter("broker_heap_ntstores_total", "Non-temporal stores per member heap.",
			func(h HeapSnapshot) uint64 { return h.NTStores })
		heapCounter("broker_heap_flushes_total", "Cache-line write-backs (CLWB) per member heap.",
			func(h HeapSnapshot) uint64 { return h.Flushes })
		heapCounter("broker_heap_post_flush_accesses_total", "Accesses to explicitly flushed lines per member heap.",
			func(h HeapSnapshot) uint64 { return h.PostFlushAccesses })
	}
	return b.Flush()
}

// ValidatePrometheus checks that r is syntactically valid Prometheus
// text exposition format: well-formed comment and sample lines, legal
// metric and label names, parseable values, and a TYPE declaration
// preceding every sample family (summaries may emit _sum/_count under
// their base name). It exists so CI can assert cmd/brokerstat's
// output stays scrape-ready without importing a Prometheus client.
func ValidatePrometheus(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := map[string]string{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parsePromComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if kind == "TYPE" {
				switch rest {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("line %d: unknown metric type %q", lineNo, rest)
				}
				typed[name] = rest
			}
			continue
		}
		name, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := name
		for _, suffix := range []string{"_sum", "_count"} {
			if t, ok := typed[strings.TrimSuffix(name, suffix)]; ok && (t == "summary" || t == "histogram") {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := typed[base]; !ok {
			return fmt.Errorf("line %d: sample %q has no preceding # TYPE declaration", lineNo, name)
		}
	}
	return sc.Err()
}

func validPromName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func parsePromComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	kind = fields[1]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("comment must be # HELP or # TYPE, got %q", kind)
	}
	name = fields[2]
	if !validPromName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	if kind == "TYPE" && rest == "" {
		return "", "", "", fmt.Errorf("# TYPE %s missing a type", name)
	}
	return kind, name, rest, nil
}

// parsePromSample validates one sample line and returns the metric
// name.
func parsePromSample(line string) (string, error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if !validPromName(name) {
		return "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end, err := parsePromLabels(rest)
		if err != nil {
			return "", fmt.Errorf("sample %q: %w", name, err)
		}
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("sample %q: want value [timestamp], got %q", name, rest)
	}
	if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
		return "", fmt.Errorf("sample %q: bad value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", fmt.Errorf("sample %q: bad timestamp %q", name, fields[1])
		}
	}
	return name, nil
}

// parsePromLabels scans a {name="value",...} label block starting at
// s[0] == '{' and returns the index just past the closing brace.
func parsePromLabels(s string) (int, error) {
	i := 1
	for {
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return i + 1, nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j == len(s) || !validPromName(strings.TrimSuffix(s[i:j], " ")) {
			return 0, fmt.Errorf("bad label name in %q", s)
		}
		i = j + 1
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label value must be quoted in %q", s)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label value in %q", s)
		}
		i++
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}
