package harness

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunBrokerDriverFailure pins the conductor's failure contract on
// two injected drivers: the run returns the first error *raised*
// (named by its driver), not the first in some fixed order, and winds
// down at once — producers stop, the paced side drivers return from
// their pauses — instead of sleeping out Duration.
func TestRunBrokerDriverFailure(t *testing.T) {
	boom := errors.New("boom")
	one := func(*BrokerConfig) int { return 1 }
	saved := drivers
	defer func() { drivers = saved }()
	drivers = append(append([]driver(nil), saved...),
		driver{name: "late", n: one, run: func(r *run, _ int) error { <-r.failed; return errors.New("late") }},
		driver{name: "boom", n: one, run: func(*run, int) error { return boom }},
	)
	begin := time.Now()
	_, err := RunBroker(BrokerConfig{
		Producers: 1, Consumers: 2, Ack: true, Churn: 2, DynTopics: 2, DelTopics: 2,
		Duration: time.Minute, HeapBytes: 64 << 20,
	})
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "harness: boom: ") {
		t.Fatalf("RunBroker error = %v, want the first raised, prefixed by its driver's name", err)
	}
	if took := time.Since(begin); took > 20*time.Second {
		t.Fatalf("failed run took %v of a 1m Duration to wind down", took)
	}
}
