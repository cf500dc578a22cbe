package harness

import (
	"testing"
	"time"
)

// TestRunBrokerDrainsEverything audits the drain rule, the only thing
// between a timed cell and a hang or an undercount: whatever the
// shape, the consumers return, and only after delivering everything
// the producers published.
func TestRunBrokerDrainsEverything(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  BrokerConfig
	}{
		{"ladder-1p1c-batch8", BrokerConfig{Topics: 1, Shards: 4, Heaps: 1, Producers: 1, Consumers: 1, Batch: 8, DequeueBatch: 8}},
		{"2topics-2heaps-per-message", BrokerConfig{Topics: 2, Shards: 4, Heaps: 2, Producers: 2, Consumers: 2, Batch: 1, DequeueBatch: 1}},
		{"2p3c-batch16-8", BrokerConfig{Topics: 2, Shards: 4, Heaps: 1, Producers: 2, Consumers: 3, Batch: 16, DequeueBatch: 8}},
	} {
		t.Run(c.name, func(t *testing.T) {
			c.cfg.Duration, c.cfg.HeapBytes = 100*time.Millisecond, 64<<20
			r, err := RunBroker(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Published == 0 || r.Delivered != r.Published {
				t.Fatalf("delivered %d of %d published", r.Delivered, r.Published)
			}
		})
	}
}
