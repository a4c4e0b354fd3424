// Package netem implements Mahimahi's network-emulation primitives on the
// virtual clock from internal/sim.
//
// The paper's DelayShell and LinkShell are, at their core, two queueing
// disciplines applied per direction of a link:
//
//   - DelayBox: every packet is released exactly one fixed one-way delay
//     after it arrives (DelayShell, §2).
//   - TraceBox: packets wait in a queue and are released at packet-delivery
//     opportunities read from a trace file, one MTU-sized packet per
//     opportunity (LinkShell, §2).
//
// Boxes are unidirectional and composable in series (Pipeline); a
// bidirectional link is a pair of pipelines (Duplex). Shell nesting in
// Mahimahi (`mm-delay 50 mm-link up down -- app`) corresponds to
// concatenating each shell's boxes onto both directions.
package netem

import (
	"fmt"

	"repro/internal/sim"
)

// MTU is the emulated maximum transmission unit. Mahimahi's traces describe
// delivery opportunities for 1500-byte packets.
const MTU = 1500

// Packet is the unit of work flowing through boxes. Packets carry an opaque
// payload for the transport layer; boxes only inspect Size.
type Packet struct {
	// Size is the number of bytes the packet occupies on the wire,
	// including all headers.
	Size int
	// Flow identifies the connection the packet belongs to, for per-flow
	// accounting in tests and stats.
	Flow uint64
	// Seq is a transport-defined sequence number (used only for debugging
	// and test assertions).
	Seq int64
	// Sent is the virtual time the packet entered the current box. Boxes
	// update it on ingress.
	Sent sim.Time
	// ECT marks the packet as belonging to an ECN-capable transport
	// (RFC 3168): a marking AQM (codel-ecn, PIE) signals congestion on such
	// packets by setting CE instead of dropping them. Non-ECT packets are
	// dropped as before even by a marking discipline.
	ECT bool
	// CE is the Congestion Experienced mark, set by an AQM whose control
	// law fired on an ECT packet. It travels with the packet to the
	// receiving transport, which echoes it back to the sender.
	CE bool
	// Corrupt marks the packet as bit-damaged in flight (CorruptBox). The
	// emulation delivers it anyway — real links do — and the receiving
	// transport discards it as a checksum failure, so corruption costs a
	// full RTO or fast-retransmit round trip rather than vanishing
	// silently at the link.
	Corrupt bool
	// enq is the virtual time the packet entered the qdisc currently
	// holding it, stamped by Qdisc.Enqueue; sojourn-time AQM (CoDel) and
	// per-queue delay telemetry read it at dequeue.
	enq sim.Time
	// Payload is opaque transport data (e.g. a *tcpsim.Segment).
	Payload any
	// pool is the packet's origin pool (nil for hand-built packets), so a
	// drop anywhere in the data plane can recycle without knowing the
	// topology; pooled marks pool-allocated packets.
	pool   *PacketPool
	pooled bool
}

// PacketPool recycles Packets within one event loop. The simulation is
// single-goroutine per loop, so the free list needs no synchronization.
// Packets dropped anywhere in the data plane (qdisc tail or AQM drops,
// probabilistic loss) are recycled via Packet.Recycle.
type PacketPool struct {
	free []*Packet
	// ReleasePayload, when set, receives the payload of every dropped
	// packet recycled through Packet.Recycle, so the layer that wrapped the
	// payload can free it too (nsim recycles the datagram and forwards to
	// the transport's segment refcount). Delivered packets are recycled
	// with Put by the sink that consumed the payload, which bypasses the
	// hook.
	ReleasePayload func(payload any)
	// ClonePayload, when set, produces an independently-owned copy of a
	// packet's payload for Packet.Clone (DuplicateBox). The copy must be
	// safe to release through ReleasePayload without affecting the
	// original: nsim clones the datagram and takes a fresh reference on
	// the transport segment underneath.
	ClonePayload func(payload any) any
	// gets and puts count pool traffic for leak accounting: at quiescence
	// (no packets in flight or queued) they must balance.
	gets, puts uint64
}

// Get returns a zeroed packet, reusing a recycled one when available.
func (pp *PacketPool) Get() *Packet {
	pp.gets++
	if n := len(pp.free); n > 0 {
		pkt := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		return pkt
	}
	return &Packet{pooled: true, pool: pp}
}

// Put recycles a pool-allocated packet. The caller must be done with the
// packet: its fields are cleared in place.
func (pp *PacketPool) Put(pkt *Packet) {
	if pkt == nil || !pkt.pooled {
		return
	}
	pp.puts++
	*pkt = Packet{pooled: true, pool: pp}
	pp.free = append(pp.free, pkt)
}

// Outstanding reports Get calls not yet balanced by a Put: the number of
// pool packets currently alive (in flight or queued). Zero at quiescence
// means no drop path leaked a packet.
func (pp *PacketPool) Outstanding() int64 { return int64(pp.gets) - int64(pp.puts) }

// Recycle returns a dropped pool-allocated packet to its origin pool;
// hand-built packets (tests, benches) are ignored. Every drop path — qdisc
// tail and AQM drops, probabilistic loss — calls this, so no discipline can
// leak pooled packets.
//
// A dropped packet's payload is dead too: nothing downstream will ever see
// it. The pool's ReleasePayload hook (installed by nsim) therefore receives
// it here, recycling the pooled nsim.Datagram and releasing the wire copy's
// segment reference through the transport's refcounts — the drop-release
// chain that closes the last drop-path allocation leak.
func (p *Packet) Recycle() {
	if p == nil || p.pool == nil {
		return
	}
	if p.Payload != nil && p.pool.ReleasePayload != nil {
		p.pool.ReleasePayload(p.Payload)
	}
	p.pool.Put(p)
}

// Clone returns an independently-owned copy of the packet (DuplicateBox's
// wire duplicate). Pooled packets clone through their origin pool — the
// get/put ledger sees the copy as a first-class packet — and the payload is
// cloned through the pool's ClonePayload hook so both copies can be
// delivered or dropped in any order. Without a hook (hand-built test
// packets, payload-less benches) the clone carries a nil payload.
func (p *Packet) Clone() *Packet {
	var cp *Packet
	if p.pool != nil {
		cp = p.pool.Get()
	} else {
		cp = &Packet{}
	}
	cp.Size, cp.Flow, cp.Seq, cp.Sent = p.Size, p.Flow, p.Seq, p.Sent
	cp.ECT, cp.CE, cp.Corrupt, cp.enq = p.ECT, p.CE, p.Corrupt, p.enq
	if p.Payload != nil && p.pool != nil && p.pool.ClonePayload != nil {
		cp.Payload = p.pool.ClonePayload(p.Payload)
	}
	return cp
}

// String formats a short description of the packet for debug output.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{flow=%d seq=%d size=%d}", p.Flow, p.Seq, p.Size)
}

// Sink consumes delivered packets as a train: a contiguous run of packets
// delivered at one virtual instant whose per-packet deliveries are provably
// adjacent in event-firing order (nothing else may fire between them), so
// the whole run can be handed over in one call. A single packet is a
// one-packet train. The slice is owned by the caller and valid only for the
// duration of the call; consumers must not retain it.
type Sink func(pkts []*Packet)

// Box is a unidirectional packet processor: trains enter via Send and their
// packets are eventually handed to the sink (or dropped).
type Box interface {
	// Send injects a same-instant packet train at the current virtual
	// time; a single packet is a one-packet train. Boxes use the train
	// shape to do per-train instead of per-packet work (one delivery
	// event, one queue arm). The box must not retain the slice.
	Send(pkts []*Packet)
	// SetSink installs the delivery callback. It must be called before the
	// first Send.
	SetSink(sink Sink)
	// Stats reports the box's counters.
	Stats() BoxStats
}

// BoxStats are the counters every box maintains.
type BoxStats struct {
	// Arrived counts packets that entered the box.
	Arrived uint64
	// Delivered counts packets handed to the sink.
	Delivered uint64
	// Dropped counts packets discarded (queue overflow, loss).
	Dropped uint64
	// ArrivedBytes and DeliveredBytes are the byte analogues.
	ArrivedBytes   uint64
	DeliveredBytes uint64
	// QueueLen is the instantaneous number of queued packets.
	QueueLen int
	// QueueBytes is the instantaneous number of queued bytes.
	QueueBytes int
	// MaxQueueLen is the high-water mark of QueueLen.
	MaxQueueLen int
}

// Wire is a zero-delay passthrough box, useful as the identity element of a
// Pipeline and as the baseline in overhead experiments (Figure 2's
// "ReplayShell alone" stack).
type Wire struct {
	sink  Sink
	stats BoxStats
}

// NewWire returns a passthrough box.
func NewWire() *Wire { return &Wire{} }

// Send implements Box: immediate, in-order delivery; the train passes
// through undivided.
func (w *Wire) Send(pkts []*Packet) {
	if w.sink == nil {
		panic("netem: Wire.Send before SetSink")
	}
	for _, pkt := range pkts {
		w.stats.Arrived++
		w.stats.ArrivedBytes += uint64(pkt.Size)
		w.stats.Delivered++
		w.stats.DeliveredBytes += uint64(pkt.Size)
	}
	w.sink(pkts)
}

// SetSink implements Box.
func (w *Wire) SetSink(sink Sink) { w.sink = sink }

// Stats implements Box.
func (w *Wire) Stats() BoxStats { return w.stats }
