package broker

import "repro/internal/obs"

// span is the broker's one observation point: every verb opens a span
// before its queue call and reports what happened through it, so each
// verb is written once — there is no observed twin of any queue call.
// The four primitives below (span, lat, event, published) and bump are
// the only code that asks whether an observer is attached; with none,
// each is one predictable not-taken branch. Nothing here touches pmem:
// an attached observer adds zero fences, NTStores and flushes to any
// verb (TestObserverZeroPersistCost).
type span struct {
	o     *obs.Observer
	tid   int
	start int64
}

// span starts timing one verb on tid. The span names its thread
// whether or not anyone is watching: verbs handed a span (publishTo)
// run under sp.tid.
func (b *Broker) span(tid int) span {
	if b.obs == nil {
		return span{tid: tid}
	}
	return span{o: b.obs, tid: tid, start: obs.Now()}
}

// lat records the span's age as one latency sample of op. Verbs that
// did nothing (an empty poll, an Ack with nothing new) do not call it:
// idle work is free by design and would drown the distribution.
func (sp span) lat(op obs.Op) {
	if sp.o != nil {
		sp.o.Lat(sp.tid, op, sp.start)
	}
}

// event appends one trace record; ts may be nil and shard negative
// when the event has no shard attribution.
func (sp span) event(op obs.Op, ts *obs.TopicStats, shard int) {
	if sp.o != nil {
		sp.o.Event(sp.tid, op, ts, shard)
	}
}

// published closes a publish of n messages to shard si of t.
func (sp span) published(t *Topic, si, n int) {
	if sp.o != nil {
		sp.o.Lat(sp.tid, obs.OpPublish, sp.start)
		t.ostats.Published(si, n)
		sp.o.Event(sp.tid, obs.OpPublish, t.ostats, si)
	}
}

// delivered counts n fresh deliveries out of shard si of t and
// advances the owning group's lag cursor (nil on heap topics, which no
// group consumes). Redeliveries are not fresh: the frontier already
// passed them, so they bump Delivered and Redelivered and stop there.
func (sp span) delivered(t *Topic, si int, cur *obs.ShardCursor, n int) {
	if n == 0 {
		return
	}
	bump(t.ostats, (*obs.TopicStats).Delivered, n)
	bump(cur, (*obs.ShardCursor).Advance, n)
	sp.event(obs.OpPoll, t.ostats, si)
}

// done closes a verb whose trace record carries no shard: an ack, an
// admin operation (ts the created topic's gauges, else nil), an expiry
// scan.
func (sp span) done(op obs.Op, ts *obs.TopicStats) {
	sp.lat(op)
	sp.event(op, ts, -1)
}

// bump adds n to one counter of a gauge object that exists exactly
// when the broker has an observer (Topic.ostats, Group.ostats,
// consumerShard.cur) — pass the counter as a method expression.
func bump[S any](s *S, counter func(*S, int), n int) {
	if s != nil {
		counter(s, n)
	}
}
