package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/harness"
)

type result = harness.BrokerResult

// column is one quantity brokerbench reports of a cell. The CSV
// header, the CSV row, the human table and its legend are all
// generated from the columns table, so adding an output is one entry.
type column struct {
	name string // CSV header
	verb string // fmt verb of the value, in the CSV and in the table
	val  func(r result) any
	// head is the table cell's header: "" keeps the column out of the
	// table, "/" joins it onto the previous column's cell.
	head string
	doc  string // legend sentence of the table cell that starts here
	lat  bool   // zero without -latency, and then left out of the table
}

// of adapts a result accessor of any value type to column.val.
func of[T any](f func(result) T) func(result) any {
	return func(r result) any { return f(r) }
}

// flag01 reports a mode flag the way the sweep takes it: 0 or 1.
func flag01(on bool) int {
	if on {
		return 1
	}
	return 0
}

// quantiles is the three columns name_p50_us, _p99_us, _p999_us of one
// (p50, p99, p999) nanosecond triple, reported in microseconds as one
// table cell.
func quantiles(name, head, doc string, lat bool, q func(result) (p50, p99, p999 float64)) []column {
	cols := make([]column, 3)
	for i, p := range []string{"p50", "p99", "p999"} {
		cols[i] = column{name: name + "_" + p + "_us", verb: "%.3f", head: "/", lat: lat, val: func(r result) any {
			var ns [3]float64
			ns[0], ns[1], ns[2] = q(r)
			return ns[i] / 1e3
		}}
	}
	cols[0].head, cols[0].doc = head, doc
	return cols
}

var columns = slices.Concat([]column{
	{name: "topics", verb: "%d", val: func(r result) any { return r.Topics }},
	{name: "shards", verb: "%d", val: func(r result) any { return r.Shards }, head: "shards"},
	{name: "heaps", verb: "%d", val: func(r result) any { return r.Heaps }, head: "heaps"},
	{name: "producers", verb: "%d", val: func(r result) any { return r.Producers }},
	{name: "consumers", verb: "%d", val: func(r result) any { return r.Consumers }},
	{name: "batch", verb: "%d", val: func(r result) any { return r.Batch }, head: "batch"},
	{name: "dbatch", verb: "%d", val: func(r result) any { return r.DequeueBatch }, head: "dbatch"},
	{name: "payload", verb: "%d", val: func(r result) any { return r.Payload }},
	{name: "ack", verb: "%d", val: func(r result) any { return flag01(r.Ack) }, head: "ack"},
	{name: "abatch", verb: "%d", val: func(r result) any { return flag01(r.AdaptiveBatch) }, head: "ab/pl/po",
		doc: "the tail-latency modes — adaptive batch / pipelined persists / event-loop poller"},
	{name: "pipeline", verb: "%d", val: func(r result) any { return flag01(r.Pipeline) }, head: "/"},
	{name: "poller", verb: "%d", val: func(r result) any { return flag01(r.Poller) }, head: "/"},
	{name: "pgap_ns", verb: "%d", val: func(r result) any { return r.ProduceGapNs }, head: "pgap-ns"},
	{name: "published", verb: "%d", val: func(r result) any { return r.Published }, head: "published"},
	{name: "delivered", verb: "%d", val: func(r result) any { return r.Delivered }, head: "delivered"},
	{name: "mops", verb: "%.3f", val: of(result.Mops), head: "Mops"},
	{name: "prod_fences_per_msg", verb: "%.4f", val: of(result.ProducerFencesPerMsg), head: "prod-fence/msg",
		doc: "blocking persists per published message — ~1 per-message, ~1/batch on the batch-publish path"},
	{name: "cons_fences_per_msg", verb: "%.4f", val: of(result.ConsumerFencesPerMsg), head: "cons-fence/msg",
		doc: "the consume-side mirror — ~1/dbatch with PollBatch, one fence per persistence domain a poll dequeued from; in ack cells it is the lease record's fence"},
	{name: "ack_fences_per_msg", verb: "%.4f", val: of(result.AckFencesPerMsg), head: "ack-fence/msg",
		doc: "persists spent in Consumer.Ack per delivered message — ~1/dbatch when each poll window is acked as a whole"},
	{name: "idle_fences_per_poll", verb: "%.4f", val: of(result.IdleFencesPerPoll), head: "idle-f/poll",
		doc: "persists per all-empty poll — ~0 with empty-poll fence elision"},
	{name: "heap_imbalance", verb: "%.3f", val: of(result.HeapImbalance), head: "heap-imbal",
		doc: "busiest heap's persist traffic over the per-heap mean — 1.0 is perfectly balanced placement"},
	{name: "poller_sleeps", verb: "%d", val: func(r result) any { return r.PollerSleeps }},
	{name: "poller_wakes", verb: "%d", val: func(r result) any { return r.PollerWakes }},
},
	quantiles("soj", "soj-µs(50/99/999)", "publish sojourn (arrival → durable ack) p50/p99/p999 in microseconds — the idle-topic tail adaptive batching attacks; measured by the harness itself, so present without -latency", false,
		func(r result) (float64, float64, float64) {
			return r.PubSojournP50Ns, r.PubSojournP99Ns, r.PubSojournP999Ns
		}),
	quantiles("pub", "pub-µs(50/99/999)", "p50/p99/p999 microseconds of one Publish call", true, result.PublishQuantiles),
	quantiles("poll", "poll-µs(50/99/999)", "p50/p99/p999 microseconds of one non-empty Poll/PollBatch call", true, result.PollQuantiles),
	quantiles("ack", "ack-µs(50/99/999)", "p50/p99/p999 microseconds of one Consumer.Ack that released at least one message", true, result.AckQuantiles),
)

// csvLine renders one line of the CSV, every column in table order:
// r's values, or the header line when r is nil.
func csvLine(r *result) string {
	fields := make([]string, len(columns))
	for i, c := range columns {
		fields[i] = c.name
		if r != nil {
			fields[i] = fmt.Sprintf(c.verb, c.val(*r))
		}
	}
	return strings.Join(fields, ",")
}

// verbWidth is the room the human table leaves a value of each verb.
var verbWidth = map[string]int{"%d": 3, "%.3f": 7, "%.4f": 6}

// tableLine renders one line of the human table likewise. A cell is a
// headed column plus the "/" columns joined onto it.
func tableLine(r *result, latency bool) string {
	var b strings.Builder
	for i := 0; i < len(columns); {
		j := i + 1
		for j < len(columns) && columns[j].head == "/" {
			j++
		}
		cell := columns[i:j]
		i = j
		if cell[0].head == "" || cell[0].lat && !latency {
			continue
		}
		text, width := cell[0].head, len(cell)
		if r != nil {
			vals := make([]string, len(cell))
			for j, c := range cell {
				vals[j] = fmt.Sprintf(c.verb, c.val(*r))
			}
			text = strings.Join(vals, "/")
		}
		for _, c := range cell {
			width += verbWidth[c.verb]
		}
		fmt.Fprintf(&b, " %*s", max(width, utf8.RuneCountInString(cell[0].head)), text)
	}
	return b.String()
}

// legend explains every table cell that has something to explain.
func legend(w io.Writer, latency bool) {
	fmt.Fprintln(w)
	for _, c := range columns {
		if c.doc != "" && (latency || !c.lat) {
			fmt.Fprintf(w, " %s: %s\n", c.head, c.doc)
		}
	}
}
