package netem

import (
	"fmt"

	"repro/internal/sim"
)

// DelayBox releases every packet exactly one fixed one-way delay after it
// arrives, as DelayShell does (paper §2): "Each packet is released from the
// queue after the user-specified one-way delay, enforcing a fixed per-packet
// delay."
//
// Because the delay is identical for every packet, delivery is FIFO; the box
// tracks its occupancy in Stats so the queue can be observed.
//
// Bursts are delivered as packet trains: a run of packets arriving at one
// instant with nothing scheduled in between (see train) shares one delivery
// event and reaches the sink as one train, so a congestion-window burst
// costs one event instead of one per packet.
type DelayBox struct {
	loop  *sim.Loop
	delay sim.Time
	sink  Sink
	stats BoxStats
	// open is the train still accepting same-instant appends; mark is the
	// loop's SeqMark right after the train last grew, the adjacency guard.
	open *train
	mark uint64
	// releaseFn is the release method pre-bound once, so each train's
	// delivery event carries the train as the event argument instead of a
	// freshly allocated closure.
	releaseFn sim.ArgHandler
}

// NewDelayBox returns a fixed one-way-delay box. A zero delay degenerates to
// a Wire with one event-loop hop (DelayShell 0 ms in Figure 2).
func NewDelayBox(loop *sim.Loop, delay sim.Time) *DelayBox {
	if delay < 0 {
		panic(fmt.Sprintf("netem: negative delay %v", delay))
	}
	d := &DelayBox{loop: loop, delay: delay}
	d.releaseFn = d.release
	return d
}

// Delay reports the configured one-way delay.
func (d *DelayBox) Delay() sim.Time { return d.delay }

// admit runs per-packet ingress accounting.
func (d *DelayBox) admit(pkt *Packet) {
	d.stats.Arrived++
	d.stats.ArrivedBytes += uint64(pkt.Size)
	d.stats.QueueLen++
	d.stats.QueueBytes += pkt.Size
	if d.stats.QueueLen > d.stats.MaxQueueLen {
		d.stats.MaxQueueLen = d.stats.QueueLen
	}
	pkt.Sent = d.loop.Now()
}

// schedule joins the packet to the open train when the adjacency guard
// holds (same exit instant, no event scheduled since the last append), and
// otherwise opens a fresh train with its own delivery event.
func (d *DelayBox) schedule(pkt *Packet) {
	exit := d.loop.Now() + d.delay
	if d.open != nil && d.open.exit == exit && d.loop.SeqMark() == d.mark {
		d.open.pkts = append(d.open.pkts, pkt)
		return
	}
	t := getTrain()
	t.exit = exit
	t.pkts = append(t.pkts, pkt)
	d.open = t
	d.loop.ScheduleArg(d.delay, d.releaseFn, t)
	d.mark = d.loop.SeqMark()
}

// Send implements Box: the whole train shares one exit instant, so after
// the first packet (possibly) opens a train the rest append in O(1).
func (d *DelayBox) Send(pkts []*Packet) {
	if d.sink == nil {
		panic("netem: DelayBox.Send before SetSink")
	}
	for _, pkt := range pkts {
		d.admit(pkt)
		d.schedule(pkt)
	}
}

// release delivers one train to the sink.
func (d *DelayBox) release(_ sim.Time, arg any) {
	t := arg.(*train)
	if d.open == t {
		d.open = nil
	}
	for _, pkt := range t.pkts {
		d.stats.QueueLen--
		d.stats.QueueBytes -= pkt.Size
		d.stats.Delivered++
		d.stats.DeliveredBytes += uint64(pkt.Size)
	}
	d.sink(t.pkts)
	putTrain(t)
}

// SetSink implements Box.
func (d *DelayBox) SetSink(sink Sink) { d.sink = sink }

// Stats implements Box.
func (d *DelayBox) Stats() BoxStats { return d.stats }

// LossBox drops packets according to a pluggable LossModel (Mahimahi's
// mm-loss extension; Bernoulli by default). Drops are drawn from a
// dedicated sim.Rand stream so loss patterns are reproducible, and the
// model is swappable mid-run (SetModel/SetProb) for scripted loss steps —
// a ScenarioScript mutation that takes effect from the next packet.
type LossBox struct {
	model LossModel
	rng   *sim.Rand
	sink  Sink
	stats BoxStats
	out   trainOut // survivors, copied only once a drop splits the train
}

// NewLossBox returns a box that drops packets independently with
// probability prob in [0, 1] (a Bernoulli model).
func NewLossBox(prob float64, rng *sim.Rand) *LossBox {
	return &LossBox{model: NewBernoulli(prob), rng: rng}
}

// NewLossBoxModel returns a box dropping per the given model.
func NewLossBoxModel(model LossModel, rng *sim.Rand) *LossBox {
	if model == nil {
		panic("netem: NewLossBoxModel with nil model")
	}
	return &LossBox{model: model, rng: rng}
}

// Model reports the box's current loss model.
func (l *LossBox) Model() LossModel { return l.model }

// SetModel replaces the loss model from the next packet on. The RNG stream
// continues where it left off — position in the stream is determined by
// the packets already judged, so a scripted swap is deterministic.
func (l *LossBox) SetModel(model LossModel) {
	if model == nil {
		panic("netem: LossBox.SetModel with nil model")
	}
	l.model = model
}

// SetProb replaces the model with a Bernoulli of the given probability —
// the scripted loss-rate step.
func (l *LossBox) SetProb(prob float64) { l.model = NewBernoulli(prob) }

// Send implements Box. Loss draws happen per packet in train order —
// exactly the stream one-packet trains would consume — and the surviving
// (possibly shortened) run continues as one train.
func (l *LossBox) Send(pkts []*Packet) {
	if l.sink == nil {
		panic("netem: LossBox.Send before SetSink")
	}
	for i, pkt := range pkts {
		l.stats.Arrived++
		l.stats.ArrivedBytes += uint64(pkt.Size)
		if l.model.Drop(l.rng) {
			l.stats.Dropped++
			pkt.Recycle()
			l.out.diverge(pkts, i)
			continue
		}
		l.stats.Delivered++
		l.stats.DeliveredBytes += uint64(pkt.Size)
		l.out.add(pkt)
	}
	l.out.send(pkts, l.sink)
}

// SetSink implements Box.
func (l *LossBox) SetSink(sink Sink) { l.sink = sink }

// Stats implements Box.
func (l *LossBox) Stats() BoxStats { return l.stats }

// RateBox models a store-and-forward link with a fixed bit rate: each packet
// occupies the transmitter for size*8/rate seconds, and packets queue behind
// one another. It is the non-trace alternative to TraceBox for constant-rate
// links, and is used by the ablation benches to validate TraceBox's
// constant-rate traces against first principles.
//
// A train entering the box is admitted to the qdisc in one pass, then the
// transmitter is started once; a single rearmable timer walks the
// serialization schedule. Each packet's exit time is computed when it is
// committed to the transmitter (exit = start + size*8/rate, with start the
// previous packet's exit while the link is busy) — identical timing to an
// admission-time schedule for FIFO queues, but correct under disciplines
// that drop at dequeue (CoDel), where an admission-time schedule would
// leave the link idling through the dropped packets' slots.
type RateBox struct {
	loop    *sim.Loop
	bps     int64 // bits per second
	queue   Qdisc
	sink    Sink
	stats   BoxStats
	sending bool
	cur     *Packet    // packet occupying the transmitter
	out     [1]*Packet // egress slot: each finish delivers a one-packet train
	timer   sim.Timer  // finish timer, rearmed across the schedule
	carry   qdiscCarry
}

// qdiscCarry preserves a box's cumulative telemetry across scripted qdisc
// swaps: when SwapQdisc discards the old discipline, its drop count and
// backlog high-water mark fold in here so BoxStats stays monotone.
type qdiscCarry struct {
	drops  uint64
	maxLen int
}

// absorb folds a retiring qdisc's counters into the carry, plus any
// flush-policy drops the swap itself caused.
func (c *qdiscCarry) absorb(qs *QueueStats, flushDrops uint64) {
	c.drops += qs.Drops() + flushDrops
	if qs.MaxLen > c.maxLen {
		c.maxLen = qs.MaxLen
	}
}

// apply adjusts a BoxStats read-through with the carried history.
func (c *qdiscCarry) apply(st *BoxStats) {
	st.Dropped += c.drops
	if c.maxLen > st.MaxQueueLen {
		st.MaxQueueLen = c.maxLen
	}
}

// NewRateBox returns a fixed-rate box. bitsPerSec must be positive. queue
// is the queue discipline bounding the backlog; pass nil for an unbounded
// (infinite) queue.
func NewRateBox(loop *sim.Loop, bitsPerSec int64, queue Qdisc) *RateBox {
	if bitsPerSec <= 0 {
		panic(fmt.Sprintf("netem: non-positive rate %d", bitsPerSec))
	}
	if queue == nil {
		queue = NewInfinite()
	}
	r := &RateBox{loop: loop, bps: bitsPerSec, queue: queue}
	r.timer = loop.NewTimer(r.finish)
	return r
}

// Queue exposes the box's queue discipline, for telemetry.
func (r *RateBox) Queue() Qdisc { return r.queue }

// Rate reports the configured bit rate.
func (r *RateBox) Rate() int64 { return r.bps }

// SetRate changes the link rate — the scripted rate step. The packet
// occupying the transmitter finishes at the exit time its serialization
// already committed to (the store-and-forward analogue of a modem
// retraining after the bit in flight); every later packet serializes at
// the new rate.
func (r *RateBox) SetRate(bitsPerSec int64) {
	if bitsPerSec <= 0 {
		panic(fmt.Sprintf("netem: non-positive rate %d", bitsPerSec))
	}
	r.bps = bitsPerSec
}

// SwapQdisc atomically replaces the box's queue discipline — the scripted
// AQM hot-swap. The packet committed to the transmitter is left to finish.
// The old backlog is flushed per policy: DrainHold re-enqueues every packet
// into the new discipline at the swap instant in FIFO order (sojourn
// restarts; the new discipline's admission law may tail-drop), DrainFlush
// recycles it with drop accounting. Returns how many backlogged packets
// moved into the new queue and how many were dropped at the boundary.
func (r *RateBox) SwapQdisc(q Qdisc, policy DrainPolicy) (moved, dropped int) {
	if q == nil {
		q = NewInfinite()
	}
	old := r.queue
	r.queue = q
	now := r.loop.Now()
	var flushDrops uint64
	old.Flush(func(pkt *Packet) {
		switch policy {
		case DrainHold:
			if q.Enqueue(pkt, now) {
				moved++
			} else {
				dropped++ // the new discipline's admission law rejected it
			}
		default: // DrainFlush
			dropped++
			flushDrops++
			pkt.Recycle()
		}
	})
	r.carry.absorb(old.QueueStats(), flushDrops)
	return moved, dropped
}

// transmitTime is the serialization delay of a packet at the box's rate.
func (r *RateBox) transmitTime(size int) sim.Time {
	return sim.Time(int64(size) * 8 * int64(sim.Second) / r.bps)
}

// admit queues one packet; the qdisc tail-drops (and recycles) on overflow.
func (r *RateBox) admit(pkt *Packet) {
	r.stats.Arrived++
	r.stats.ArrivedBytes += uint64(pkt.Size)
	r.queue.Enqueue(pkt, r.loop.Now())
}

// Send implements Box: the whole train is admitted in one pass, then the
// transmitter is started once.
func (r *RateBox) Send(pkts []*Packet) {
	if r.sink == nil {
		panic("netem: RateBox.Send before SetSink")
	}
	for _, pkt := range pkts {
		r.admit(pkt)
	}
	if !r.sending {
		r.startNext()
	}
}

// startNext commits the next packet to the transmitter. The qdisc's drop
// law runs here: startNext is only ever called when the transmitter is
// idle (from Send) or has just finished (from finish), so the dequeue
// instant is the packet's serialization start.
func (r *RateBox) startNext() {
	pkt := r.queue.Dequeue(r.loop.Now())
	if pkt == nil {
		r.sending = false
		return
	}
	r.sending = true
	r.cur = pkt
	r.timer.Reset(r.transmitTime(pkt.Size))
}

// finish completes the current packet's serialization and starts the next.
func (r *RateBox) finish(sim.Time) {
	pkt := r.cur
	r.cur = nil
	r.stats.Delivered++
	r.stats.DeliveredBytes += uint64(pkt.Size)
	r.out[0] = pkt
	r.sink(r.out[:])
	r.out[0] = nil
	r.startNext()
}

// SetSink implements Box. Serialization exits are distinct instants, so
// egress is inherently per-packet: the sink sees one-packet trains.
func (r *RateBox) SetSink(sink Sink) { r.sink = sink }

// Stats implements Box: queue gauges and drop counts are read through from
// the qdisc's QueueStats, the one place they are kept.
func (r *RateBox) Stats() BoxStats {
	st := r.stats
	qs := r.queue.QueueStats()
	st.Dropped = qs.Drops()
	st.QueueLen = r.queue.Len()
	st.QueueBytes = r.queue.Bytes()
	st.MaxQueueLen = qs.MaxLen
	if r.cur != nil {
		st.QueueLen++
		st.QueueBytes += r.cur.Size
	}
	// The in-service packet counts toward the instantaneous backlog but
	// the qdisc's enqueue-time high-water mark never saw it; keep the
	// gauge pair consistent (max >= current).
	if st.QueueLen > st.MaxQueueLen {
		st.MaxQueueLen = st.QueueLen
	}
	r.carry.apply(&st)
	return st
}
