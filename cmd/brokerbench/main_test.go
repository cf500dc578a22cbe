package main

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

// TestCSVHeaderPinned holds the CSV header to the literal string every
// archived sweep starts with, so old and new sweeps stay comparable
// column by column: reorder, rename or drop a column and this fails;
// append one and extend the literal.
func TestCSVHeaderPinned(t *testing.T) {
	const want = "topics,shards,heaps,producers,consumers,batch,dbatch,payload,ack,abatch,pipeline,poller,pgap_ns,published,delivered,mops,prod_fences_per_msg,cons_fences_per_msg,ack_fences_per_msg,idle_fences_per_poll,heap_imbalance,poller_sleeps,poller_wakes,soj_p50_us,soj_p99_us,soj_p999_us,pub_p50_us,pub_p99_us,pub_p999_us,poll_p50_us,poll_p99_us,poll_p999_us,ack_p50_us,ack_p99_us,ack_p999_us"
	if got := csvLine(nil); got != want {
		t.Fatalf("CSV header changed:\n got %s\nwant %s", got, want)
	}
}

// TestSweepFamilies runs one short cell (or a small product of cells)
// per mode family through the real flag parsing and dimension
// expansion, and checks the sweep emitted one row per point of the
// product, every row as wide as the columns table, and every row
// delivered exactly what it published.
func TestSweepFamilies(t *testing.T) {
	for _, fam := range []struct{ name, flags string }{
		{"plain", "-shards 1,2 -batch 1,8 -dbatch 1,4"},
		{"ack", "-shards 2 -batch 8 -dbatch 8 -ack 1 -consumers 3"},
		{"poller+pipeline+abatch", "-shards 2 -batch 8 -dbatch 8 -ack 0,1 -poller 1 -pipeline 1 -abatch 1"},
		{"pgap", "-shards 2 -batch 8 -dbatch 4 -abatch 0,1 -pgap 200000 -producers 2"},
		{"payload", "-shards 2 -batch 1,8 -dbatch 4 -ack 0,1 -payload 64"},
		{"heaps+heaplat+latency", "-shards 2 -heaps 2 -heaplat 120,480 -batch 4 -dbatch 4 -latency"},
	} {
		t.Run(fam.name, func(t *testing.T) {
			args := append(strings.Fields(fam.flags), "-csv", "-duration", "20ms", "-heap-mb", "64")
			given := map[string]string{}
			for i, a := range args[:len(args)-1] {
				given[strings.TrimPrefix(a, "-")] = args[i+1]
			}
			cells := 1
			for _, d := range dims {
				list, ok := given[d.name]
				if !ok {
					list = d.def
				}
				cells *= 1 + strings.Count(list, ",")
			}
			var out bytes.Buffer
			if err := sweep(args, &out); err != nil {
				t.Fatal(err)
			}
			rows, err := csv.NewReader(&out).ReadAll() // also: every row is as wide as the header
			if err != nil {
				t.Fatal(err)
			}
			if len(rows)-1 != cells {
				t.Fatalf("%d rows for a product of %d cells", len(rows)-1, cells)
			}
			col := map[string]int{}
			for i, name := range rows[0] {
				col[name] = i
			}
			for _, row := range rows[1:] {
				if len(row) != len(columns) {
					t.Fatalf("row has %d fields, columns table %d: %v", len(row), len(columns), row)
				}
				published, _ := strconv.ParseUint(row[col["published"]], 10, 64)
				delivered, _ := strconv.ParseUint(row[col["delivered"]], 10, 64)
				if published == 0 || delivered != published {
					t.Errorf("published %d, delivered %d: %v", published, delivered, row)
				}
			}
		})
	}
}

// TestTableLineMatchesHeader: the human table's header and rows are cut
// from the same cells, -latency adds exactly the three per-op cells,
// and the legend explains only cells the table shows.
func TestTableLineMatchesHeader(t *testing.T) {
	for _, latency := range []bool{false, true} {
		head, row := strings.Fields(tableLine(nil, latency)), strings.Fields(tableLine(&result{}, latency))
		if len(head) != len(row) {
			t.Fatalf("latency=%v: %d header cells, %d row cells", latency, len(head), len(row))
		}
		var out bytes.Buffer
		legend(&out, latency)
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			name, _, _ := strings.Cut(strings.TrimSpace(line), ":")
			if !strings.Contains(strings.Join(head, " "), name) {
				t.Errorf("latency=%v: legend explains %q, which the table does not show", latency, name)
			}
		}
	}
	if plain, lat := strings.Fields(tableLine(nil, false)), strings.Fields(tableLine(nil, true)); len(lat) != len(plain)+3 {
		t.Fatalf("-latency adds %d cells to the table, want 3", len(lat)-len(plain))
	}
}
