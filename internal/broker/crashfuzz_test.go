package broker_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/verify"
)

// The broker's crash-fuzz tiers. Each runs one entry of
// verify.BrokerScenarios — where the scenario and its audit are
// written, and described by their Summary — over this tier's seeds;
// `crashfuzz -smoke` runs the same entries. The file is an external
// test package because the scenarios use only the broker's exported
// API (and verify imports broker).
func fuzzTier(t *testing.T, scenario, sub string, seeds ...int64) {
	t.Helper()
	var s verify.BrokerScenario
	for _, c := range verify.BrokerScenarios {
		if c.Name == scenario {
			s = c
		}
	}
	if s.Name == "" {
		t.Fatalf("no scenario %q in verify.BrokerScenarios", scenario)
	}
	if testing.Short() {
		seeds = seeds[:1]
	}
	ran, midTraffic := 0, 0
	for _, seed := range seeds {
		t.Run(fmt.Sprintf(sub, seed), func(t *testing.T) {
			ran++
			// Traced like the smoke, so a red tier shows the broker
			// operations that led up to the bad audit.
			o := obs.New(obs.Config{Threads: s.Threads, TraceEvents: 512})
			res, err := s.Run(seed, o)
			if err != nil {
				var trace strings.Builder
				o.DumpTrace(&trace, 48)
				t.Fatalf("%v\nlast trace events:\n%s", err, trace.String())
			}
			if res.MidTraffic {
				midTraffic++
			}
			t.Logf("midTraffic=%v, armed heap %d access %d: %s", res.MidTraffic, res.ArmedHeap, res.ArmedAccess, res.Tally)
		})
	}
	t.Logf("%s: power loss landed mid-traffic in %d of %d seeds", s.Name, midTraffic, len(seeds))
	// A full tier whose every power loss fell at quiescence audits
	// recovery of an idle broker only: the scenario's crash window has
	// drifted off its workload's access volume. (-short and a -run
	// filter that selects single seeds run too few to judge.)
	if !testing.Short() && ran == len(seeds) && midTraffic == 0 {
		t.Errorf("%s: no seed of %v lost power mid-traffic; resize the scenario's ScheduleCrashAtAccess window", s.Name, seeds)
	}
}

func TestBrokerCrashFuzz(t *testing.T) { fuzzTier(t, "broker-single", "seed=%d", 1, 2, 3) }

func TestBrokerCrashFuzzBatched(t *testing.T) { fuzzTier(t, "broker-batched", "seed=%d", 4, 5, 6) }

func TestBrokerCrashFuzzMultiHeap(t *testing.T) {
	fuzzTier(t, "broker-multiheap", "heaps=2/seed=%d", 7, 8, 9)
	if !testing.Short() {
		fuzzTier(t, "broker-multiheap-3", "heaps=3/seed=%d", 10)
	}
}

func TestBrokerCrashFuzzConsumerCrash(t *testing.T) {
	fuzzTier(t, "broker-consumer-crash", "seed=%d", 41, 42, 43)
}

func TestBrokerCrashFuzzDynamicTopics(t *testing.T) {
	fuzzTier(t, "broker-dynamic-topics", "seed=%d", 71, 72, 73)
}

func TestBrokerCrashFuzzTopicChurn(t *testing.T) {
	fuzzTier(t, "broker-topic-churn", "seed=%d", 51, 52, 53)
}

func TestBrokerCrashFuzzDelayTopics(t *testing.T) {
	fuzzTier(t, "broker-delay-topics", "seed=%d", 11, 12, 13)
}

func TestBrokerCrashFuzzMembershipChurn(t *testing.T) {
	fuzzTier(t, "broker-membership-churn", "seed=%d", 71, 72, 73)
}
