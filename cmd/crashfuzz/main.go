// Command crashfuzz stress-tests durable linearizability: it runs
// concurrent workloads on a chosen queue, kills them with a simulated
// full-system crash at a random memory access, optionally crashes the
// recovery procedure itself, recovers, and checks the surviving state
// against the recorded operation history (no duplication, no loss of
// completed enqueues, per-enqueuer FIFO).
//
// -smoke is the quick CI mode: few rounds per queue, then every entry
// of verify.BrokerScenarios once at -seed — the same broker crash
// audits the broker package's TestBrokerCrashFuzz* tiers run, each
// printed with its Summary. A scenario runs with an
// event-trace-enabled observer (internal/obs); when its audit fails,
// the last trace events — the publishes, polls and acks leading up to
// the bad state — are dumped to stderr alongside the error, which
// names the scenario, the seed and the armed crash point.
//
// -queue also takes a scenario name: that entry alone runs at -seed
// (-rounds times when -rounds is given), which is the rerun command an
// audit failure prints.
//
// Examples:
//
//	crashfuzz -queue opt-linked -rounds 200 -threads 4 -recovery-crashes 2
//	crashfuzz -queue broker-membership-churn -seed 71
//	crashfuzz -smoke
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/verify"
)

// traceEvents is the per-thread event-trace capacity each broker
// scenario runs with: enough to hold the operations leading up to a bad
// audit without the ring costing anything on the happy path.
const traceEvents = 512

func main() {
	var (
		queue    = flag.String("queue", "all", "queue name, broker scenario name, or 'all'")
		threads  = flag.Int("threads", 4, "worker threads")
		ops      = flag.Int("ops", 500, "max operations per thread per round")
		rounds   = flag.Int("rounds", 50, "crash/recover rounds")
		seed     = flag.Int64("seed", 1, "fuzz seed")
		recovery = flag.Int("recovery-crashes", 1, "crashes injected during recovery per round")
		smoke    = flag.Bool("smoke", false, "quick mode: few rounds per queue plus every broker crash scenario once")
	)
	flag.Parse()
	roundsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "rounds" {
			roundsSet = true
		}
	})
	if *smoke && !roundsSet {
		*rounds = 5
	}

	failed := false
	var names []string
	if i := slices.IndexFunc(verify.BrokerScenarios, func(sc verify.BrokerScenario) bool { return sc.Name == *queue }); i >= 0 {
		// A scenario name: that entry alone, at -seed.
		if !roundsSet {
			*rounds = 1
		}
		for n := 0; n < *rounds; n++ {
			failed = !runScenario(verify.BrokerScenarios[i], *seed) || failed
		}
	} else if *queue == "all" {
		for _, in := range harness.AllQueues() {
			if in.Durable {
				names = append(names, in.Name)
			}
		}
		names = append(names, "onll")
	} else {
		names = []string{*queue}
	}

	for _, name := range names {
		in, ok := harness.LookupQueue(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "crashfuzz: unknown queue or scenario %q\n", name)
			os.Exit(2)
		}
		if in.Recover == nil {
			continue
		}
		err := verify.ConcurrentCrashFuzz(in, verify.FuzzConfig{
			Threads:         *threads,
			OpsPerThread:    *ops,
			Rounds:          *rounds,
			Seed:            *seed,
			RecoveryCrashes: *recovery,
		})
		if err != nil {
			fmt.Printf("%-24s FAIL: %v\n", name, err)
			failed = true
		} else {
			fmt.Printf("%-24s ok (%d rounds, %d threads, recovery crashes %d)\n",
				name, *rounds, *threads, *recovery)
		}
	}
	if *smoke {
		for _, sc := range verify.BrokerScenarios {
			failed = !runScenario(sc, *seed) || failed
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runScenario runs one broker crash scenario at seed, prints its line
// and reports whether its audit passed.
func runScenario(sc verify.BrokerScenario, seed int64) bool {
	o := obs.New(obs.Config{Threads: sc.Threads, TraceEvents: traceEvents})
	res, err := sc.Run(seed, o)
	if err != nil {
		// A red CI run shows the broker operations that led up to
		// the bad audit.
		fmt.Fprintf(os.Stderr, "crashfuzz: %s failed — last trace events:\n", sc.Name)
		o.DumpTrace(os.Stderr, 48)
		fmt.Printf("%-24s FAIL: %v\n", sc.Name, err)
		return false
	}
	when := "at quiescence"
	if res.MidTraffic {
		when = "mid-traffic"
	}
	fmt.Printf("%-24s ok (%s) [power loss %s at heap %d access %d; %s]\n",
		sc.Name, sc.Summary, when, res.ArmedHeap, res.ArmedAccess, res.Tally)
	return true
}
