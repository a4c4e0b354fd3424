package netem

import (
	"sync"

	"repro/internal/sim"
)

// train is a pending packet-train delivery: a contiguous run of packets
// leaving a box at one virtual instant through a single event, instead of
// one event per packet. Trains are the data plane's batching unit (the
// burst/batch processing that forwarders like ndn-dpdk use): a TCP sender's
// congestion-window burst enters a fixed-delay box back-to-back, exits it
// back-to-back one delay later, and crosses the event loop as one event.
//
// Correctness rests on an adjacency invariant: a packet may join a box's
// open train only if its stand-alone delivery event would fire immediately
// after the train's last packet with nothing in between. Both conditions
// are checked at append time:
//
//   - same exit instant (equal timestamps, and the train's event was
//     scheduled with the earliest element's sequence number, so the run
//     fires at the first element's position), and
//   - no other event was scheduled on the loop since the train's last
//     append (sim.Loop.SeqMark unchanged) — otherwise an intervening
//     same-instant event could sort between the run's elements.
//
// Under that invariant, firing the train once and delivering its packets
// in order is byte-identical to the per-packet schedule: every experiment
// artifact is unchanged, only the event count drops.
//
// Train objects never travel: the owning box hands the packet slice to its
// sink (see Sink's retention rule) and immediately recycles the train
// through the shared pool.
type train struct {
	exit sim.Time
	pkts []*Packet
}

// trainSync recycles train objects process-wide. Boxes are rebuilt per
// page load (as Mahimahi rebuilds shells per invocation), so a box-local
// free list would re-pay its warmup every load; sync.Pool hands a train to
// exactly one goroutine at a time, which keeps reuse race-free under the
// parallel experiment engine while letting the pool warm once per worker.
// Pool identity never influences results — trains carry no state between
// uses.
var trainSync = sync.Pool{New: func() any { return &train{pkts: make([]*Packet, 0, 32)} }}

// getTrain and putTrain recycle trains through the shared pool. (A
// box-local cache was tried and rejected: trains parked in per-load boxes
// leave the shared pool's circulation when the box dies, costing
// allocations across loads without measurable speedup.)
func getTrain() *train { return trainSync.Get().(*train) }

func putTrain(t *train) {
	for i := range t.pkts {
		t.pkts[i] = nil
	}
	t.pkts = t.pkts[:0]
	trainSync.Put(t)
}

// trainOut assembles the train a box sends on from the train it received.
// The output aliases the input until the box first diverges from it (drops,
// holds or clones a packet); only then are the packets passed so far copied
// into the recycled scratch slice. A train the box leaves unchanged — every
// one-packet train that passes — goes out without a copy. split is false
// between trains.
type trainOut struct {
	buf   []*Packet
	split bool
}

// diverge ends the alias: in[:i] passed unchanged, and from here on every
// outgoing packet is added explicitly.
func (o *trainOut) diverge(in []*Packet, i int) {
	if !o.split {
		o.split = true
		o.buf = append(o.buf[:0], in[:i]...)
	}
}

// add appends an outgoing packet; while the alias holds it already covers
// the packet.
func (o *trainOut) add(pkt *Packet) {
	if o.split {
		o.buf = append(o.buf, pkt)
	}
}

// send hands the outgoing train for input in, unless empty, to sink.
func (o *trainOut) send(in []*Packet, sink Sink) {
	if !o.split {
		if len(in) > 0 {
			sink(in)
		}
		return
	}
	o.split = false
	out := o.buf
	if len(out) > 0 {
		sink(out)
	}
	for i := range out {
		out[i] = nil
	}
	o.buf = out[:0]
}
