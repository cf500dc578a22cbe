package broker

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pmem"
)

// TestAdminFootprintModel runs seeded single-goroutine sequences of the
// admin verbs on a 2-heap set — CreateTopic of every kind (FIFO and
// blob with 1–3 shards, delay and priority), DeleteTopic, CompactCatalog
// with and without a resize, CreateAckGroup — with clean restarts at
// random points. After every verb the broker's topics must match a
// name → config model, and every Open must recover exactly the broker
// that went down: the same slot table (every heap's live windows), the
// same windows for every topic, the same SlotFootprint and the same
// ack groups. Many short sequences rather than one long one: a small
// scope, covered densely.
func TestAdminFootprintModel(t *testing.T) {
	const (
		seeds = 12
		steps = 40
		names = 6
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hs := pmem.NewSet(2, pmem.Config{Bytes: 8 << 20, Mode: pmem.ModeCrash, MaxThreads: 1})
		// A small log, so deletes run into the automatic compaction and
		// creates into ErrCatalogFull.
		b, err := Open(hs, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.CompactCatalog(0, 48); err != nil {
			t.Fatal(err)
		}
		model := map[string]TopicConfig{}
		groups := 0
		check := func(b *Broker, what string) {
			t.Helper()
			if got := len(b.set().list); got != len(model) {
				t.Fatalf("%s: broker holds %d topics, model %d", what, got, len(model))
			}
			for name, tc := range model {
				if tp := b.Topic(name); tp == nil || tp.cfg != tc {
					t.Fatalf("%s: topic %q is %+v, model %+v", what, name, tp, tc)
				}
			}
			if len(b.regions) != groups {
				t.Fatalf("%s: broker holds %d ack groups, model %d", what, len(b.regions), groups)
			}
		}
		sorted := func(keep func(TopicConfig) bool) []string {
			var out []string
			for name, tc := range model {
				if keep(tc) {
					out = append(out, name)
				}
			}
			slices.Sort(out)
			return out
		}
		for step := 0; step < steps; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			before := slotTable(b)
			var err error
			switch op := rng.Intn(10); {
			case op < 4:
				tc := TopicConfig{Name: fmt.Sprintf("t%d", rng.Intn(names)), Shards: 1 + rng.Intn(3)}
				if _, ok := model[tc.Name]; ok {
					continue
				}
				switch rng.Intn(4) {
				case 1:
					tc.MaxPayload, tc.Acked = 64, rng.Intn(2) == 0
				case 2, 3:
					tc.Kind, tc.Shards, tc.MaxPayload = []TopicKind{KindDelay, KindPriority}[rng.Intn(2)], 1, 24
				}
				what += fmt.Sprintf(" CreateTopic(%+v)", tc)
				if _, err = b.CreateTopic(0, tc); err == nil {
					model[tc.Name] = tc
				} else if !errors.Is(err, ErrCatalogFull) {
					t.Fatalf("%s: %v", what, err)
				}
			case op < 7:
				fifo := sorted(func(tc TopicConfig) bool { return tc.Kind == KindFIFO })
				if len(fifo) == 0 {
					continue
				}
				name := fifo[rng.Intn(len(fifo))]
				what += fmt.Sprintf(" DeleteTopic(%q)", name)
				// A log compacted to a tight size may lack tombstone room.
				if err = b.DeleteTopic(0, name); err == nil {
					delete(model, name)
				} else if !errors.Is(err, ErrCatalogFull) {
					t.Fatalf("%s: %v", what, err)
				}
			case op < 8:
				lines := []int{0, 16, 64}[rng.Intn(3)]
				need := groups
				for _, tc := range model {
					need += topicRecLines(tc.Shards)
				}
				what += fmt.Sprintf(" CompactCatalog(%d) holding %d record lines", lines, need)
				err = b.CompactCatalog(0, lines)
				if fits := lines == 0 || need <= lines; fits != (err == nil) {
					t.Fatalf("%s: %v", what, err)
				}
			case op < 9:
				if groups == 3 {
					continue
				}
				what += " CreateAckGroup"
				if _, err = b.CreateAckGroup(0, AckGroupConfig{}); err == nil {
					groups++
				} else if !errors.Is(err, ErrCatalogFull) {
					t.Fatalf("%s: %v", what, err)
				}
			default:
				what += " restart"
				table, wins := slotTable(b), topicWindows(b)
				used, free := b.SlotFootprint()
				hs.CrashNow() // at quiescence: a clean restart
				hs.FinalizeCrash(rand.New(rand.NewSource(seed*1000 + int64(step))))
				hs.Restart()
				if b, err = Open(hs, Options{}); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := slotTable(b); got != table {
					t.Fatalf("%s: recovered slot table %s, want %s", what, got, table)
				}
				if got := topicWindows(b); got != wins {
					t.Fatalf("%s: recovered topic windows %s, want %s", what, got, wins)
				}
				if u, f := b.SlotFootprint(); u != used || f != free {
					t.Fatalf("%s: recovered footprint (used %d, free %d), want (used %d, free %d)", what, u, f, used, free)
				}
			}
			if err != nil {
				if got := slotTable(b); got != before {
					t.Fatalf("%s refused (%v) but changed the slot table %s -> %s", what, err, before, got)
				}
			}
			check(b, what)
		}
	}
}
