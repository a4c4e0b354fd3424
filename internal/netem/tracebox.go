package netem

import (
	"repro/internal/sim"
)

// OpportunitySource supplies packet-delivery opportunities. Next returns
// the first opportunity strictly after the given virtual time; sources loop
// forever, so Next always succeeds. internal/trace.Cursor implements this
// interface. The indirection keeps netem free of the trace file format.
type OpportunitySource interface {
	Next(after sim.Time) sim.Time
}

// TraceBox emulates one direction of LinkShell: arriving packets are placed
// in a queue discipline and released only at packet-delivery opportunities
// drawn from the trace. Each opportunity delivers up to one MTU worth of
// the head packet; packets larger than MTU consume multiple opportunities,
// and a packet smaller than MTU consumes a whole opportunity, exactly as in
// Mahimahi.
//
// The qdisc's drop law runs when a packet is committed to the transmitter
// (dequeued at the start of its first opportunity), so a CoDel queue may
// discard several stale packets before an opportunity delivers one.
type TraceBox struct {
	loop   *sim.Loop
	opps   OpportunitySource
	queue  Qdisc
	sink   Sink
	stats  BoxStats
	armed  bool
	cur    *Packet    // packet committed to the transmitter (mid-delivery)
	sentOf int        // bytes of cur already delivered
	out    [1]*Packet // egress slot: each opportunity delivers a one-packet train
	timer  sim.Timer  // opportunity timer, rearmed across the trace
	carry  qdiscCarry
}

// NewTraceBox returns a trace-driven box. queue is the queue discipline
// bounding the backlog; pass nil for an unbounded (infinite) queue.
func NewTraceBox(loop *sim.Loop, opps OpportunitySource, queue Qdisc) *TraceBox {
	if queue == nil {
		queue = NewInfinite()
	}
	t := &TraceBox{loop: loop, opps: opps, queue: queue}
	t.timer = loop.NewTimer(t.fire)
	return t
}

// Queue exposes the box's queue discipline, for telemetry.
func (t *TraceBox) Queue() Qdisc { return t.queue }

// SetSource switches the box to a different opportunity source — the
// scripted handover (LTE→wifi: same queue, same backlog, a new delivery
// schedule). A pending opportunity from the old trace is discarded and the
// box re-arms from the new source, so the first post-handover delivery is
// the new trace's first opportunity after the switch instant. A packet
// mid-delivery keeps its progress; its remaining bytes ride the new
// trace's opportunities.
func (t *TraceBox) SetSource(opps OpportunitySource) {
	if opps == nil {
		panic("netem: TraceBox.SetSource with nil source")
	}
	t.opps = opps
	if t.armed {
		t.timer.Stop()
		t.armed = false
	}
	t.arm()
}

// SwapQdisc atomically replaces the box's queue discipline — the scripted
// AQM hot-swap; see RateBox.SwapQdisc for the policy semantics. The packet
// committed to the transmitter finishes its opportunities untouched.
func (t *TraceBox) SwapQdisc(q Qdisc, policy DrainPolicy) (moved, dropped int) {
	if q == nil {
		q = NewInfinite()
	}
	old := t.queue
	t.queue = q
	now := t.loop.Now()
	var flushDrops uint64
	old.Flush(func(pkt *Packet) {
		switch policy {
		case DrainHold:
			if q.Enqueue(pkt, now) {
				moved++
			} else {
				dropped++
			}
		default: // DrainFlush
			dropped++
			flushDrops++
			pkt.Recycle()
		}
	})
	t.carry.absorb(old.QueueStats(), flushDrops)
	return moved, dropped
}

// admit queues one packet; the qdisc tail-drops (and recycles) on overflow.
func (t *TraceBox) admit(pkt *Packet) {
	t.stats.Arrived++
	t.stats.ArrivedBytes += uint64(pkt.Size)
	t.queue.Enqueue(pkt, t.loop.Now())
}

// Send implements Box: the train is admitted in one pass (qdisc drops
// shorten it) and the opportunity timer is armed once. Delivery stays
// per-opportunity, so a train longer than the current opportunity's capacity
// is split across opportunities exactly as one-packet trains would be.
func (t *TraceBox) Send(pkts []*Packet) {
	if t.sink == nil {
		panic("netem: TraceBox.Send before SetSink")
	}
	for _, pkt := range pkts {
		t.admit(pkt)
	}
	t.arm()
}

// arm schedules the next delivery opportunity if packets are waiting (or a
// large packet is mid-delivery) and no opportunity is already scheduled.
func (t *TraceBox) arm() {
	if t.armed || (t.cur == nil && t.queue.Len() == 0) {
		return
	}
	t.armed = true
	now := t.loop.Now()
	at := t.opps.Next(now)
	t.timer.Reset(at - now)
}

// fire consumes one delivery opportunity: up to MTU bytes of the head
// packet.
func (t *TraceBox) fire(sim.Time) {
	t.armed = false
	if t.cur == nil {
		// Commit the next packet to the transmitter; the qdisc's drop law
		// runs here, on the virtual clock.
		t.cur = t.queue.Dequeue(t.loop.Now())
		if t.cur == nil {
			return
		}
	}
	remaining := t.cur.Size - t.sentOf
	if remaining > MTU {
		// Large packet: this opportunity moves MTU bytes; more needed.
		t.sentOf += MTU
	} else {
		pkt := t.cur
		t.cur = nil
		t.sentOf = 0
		t.stats.Delivered++
		t.stats.DeliveredBytes += uint64(pkt.Size)
		t.out[0] = pkt
		t.sink(t.out[:])
		t.out[0] = nil
	}
	t.arm()
}

// SetSink implements Box. Delivery opportunities are distinct instants, so
// egress is inherently per-packet: the sink sees one-packet trains.
func (t *TraceBox) SetSink(sink Sink) { t.sink = sink }

// Stats implements Box: queue gauges and drop counts are read through from
// the qdisc's QueueStats, the one place they are kept.
func (t *TraceBox) Stats() BoxStats {
	st := t.stats
	qs := t.queue.QueueStats()
	st.Dropped = qs.Drops()
	st.QueueLen = t.queue.Len()
	st.QueueBytes = t.queue.Bytes()
	st.MaxQueueLen = qs.MaxLen
	if t.cur != nil {
		st.QueueLen++
		st.QueueBytes += t.cur.Size
	}
	// The in-service packet counts toward the instantaneous backlog but
	// the qdisc's enqueue-time high-water mark never saw it; keep the
	// gauge pair consistent (max >= current).
	if st.QueueLen > st.MaxQueueLen {
		st.MaxQueueLen = st.QueueLen
	}
	t.carry.apply(&st)
	return st
}
