package netem

import (
	"testing"

	"repro/internal/sim"
)

// delivery records one packet hand-off for order/time assertions.
type delivery struct {
	at   sim.Time
	flow uint64
	seq  int64
}

// recordSinks installs a sink on the box recording every delivery in
// arrival order (it decomposes trains, which is exactly the equivalence
// under test).
func recordSinks(loop *sim.Loop, b Box, got *[]delivery) {
	b.SetSink(each(func(p *Packet) {
		*got = append(*got, delivery{at: loop.Now(), flow: p.Flow, seq: p.Seq})
	}))
}

func equalDeliveries(a, b []delivery) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runScenario drives the same traffic through a fresh box twice — once
// with every packet sent as its own one-packet train at the same instant,
// once with the trains whole — and returns both delivery logs. The
// one-packet run is the reference, and the two must be identical: trains
// are an event-count optimization, never a behavioral one.
func runScenario(t *testing.T, mk func(loop *sim.Loop) Box, traffic func(inject func(batch bool, pkts ...*Packet)) func(loop *sim.Loop)) (perPacket, batched []delivery) {
	t.Helper()
	run := func(batch bool) []delivery {
		loop := sim.NewLoop()
		box := mk(loop)
		var got []delivery
		recordSinks(loop, box, &got)
		inject := func(asBatch bool, pkts ...*Packet) {
			if asBatch && batch {
				box.Send(pkts)
				return
			}
			for _, p := range pkts {
				box.Send([]*Packet{p})
			}
		}
		traffic(inject)(loop)
		loop.Run()
		return got
	}
	return run(false), run(true)
}

// TestTrainDelayBoxBurstOneEvent checks the core batching claim: a burst
// entering a DelayBox at one instant costs one delivery event, and the
// packets still come out at the exact delay, in FIFO order.
func TestTrainDelayBoxBurstOneEvent(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 30*sim.Millisecond)
	var got []delivery
	recordSinks(loop, d, &got)
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 8; i++ {
			d.Send([]*Packet{{Size: MTU, Flow: 1, Seq: int64(i)}})
		}
	})
	loop.Run()
	// Exactly two events fire in total: the injector, then the burst's
	// single shared train event — not one release event per packet.
	if loop.Fired() != 2 {
		t.Fatalf("run fired %d events, want 2 (injector + one train)", loop.Fired())
	}
	if len(got) != 8 {
		t.Fatalf("delivered %d packets, want 8", len(got))
	}
	for i, g := range got {
		if g.at != 30*sim.Millisecond || g.seq != int64(i) {
			t.Fatalf("delivery %d = %+v, want seq %d at 30ms", i, g, i)
		}
	}
}

// TestTrainGuardSplitsOnInterleavedEvent checks the adjacency guard: when
// an unrelated event is scheduled between two same-instant sends, the
// second packet must open a new train and global firing order must match
// the per-packet schedule exactly.
func TestTrainGuardSplitsOnInterleavedEvent(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 10*sim.Millisecond)
	var order []string
	d.SetSink(each(func(p *Packet) { order = append(order, p.String()) }))
	loop.Schedule(0, func(sim.Time) {
		d.Send([]*Packet{{Size: 1, Flow: 1, Seq: 1}})
		// An unrelated event lands at the exact exit instant of the train:
		// it must fire between the two packets' deliveries, as the
		// per-packet schedule would have it.
		loop.Schedule(10*sim.Millisecond, func(sim.Time) { order = append(order, "interloper") })
		d.Send([]*Packet{{Size: 1, Flow: 1, Seq: 2}})
	})
	loop.Run()
	want := []string{"pkt{flow=1 seq=1 size=1}", "interloper", "pkt{flow=1 seq=2 size=1}"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}

// TestTrainTwoFlowsInterleaveThroughSharedBox: two flows alternating sends
// into one shared DelayBox at the same instant must come out in exactly
// the interleaved arrival order, batched or not.
func TestTrainTwoFlowsInterleaveThroughSharedBox(t *testing.T) {
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) {
				// Flow 1 bursts as a train; flow 2's packets arrive singly
				// in between — all at one instant through one box.
				inject(true, &Packet{Size: MTU, Flow: 1, Seq: 10}, &Packet{Size: MTU, Flow: 1, Seq: 11})
				inject(false, &Packet{Size: MTU, Flow: 2, Seq: 20})
				inject(true, &Packet{Size: MTU, Flow: 1, Seq: 12})
				inject(false, &Packet{Size: MTU, Flow: 2, Seq: 21})
			})
		}
	}
	mk := func(loop *sim.Loop) Box { return NewDelayBox(loop, 25*sim.Millisecond) }
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	if len(batched) != 5 {
		t.Fatalf("delivered %d, want 5", len(batched))
	}
	wantSeq := []int64{10, 11, 20, 12, 21}
	for i, g := range batched {
		if g.seq != wantSeq[i] || g.at != 25*sim.Millisecond {
			t.Fatalf("delivery %d = %+v, want seq %d at 25ms", i, g, wantSeq[i])
		}
	}
}

// TestTrainSplitAcrossTraceOpportunities: a train entering a TraceBox is
// consumed one packet per delivery opportunity — the batch must not let
// packets jump opportunity boundaries.
func TestTrainSplitAcrossTraceOpportunities(t *testing.T) {
	mkOpps := func() *fixedOpps {
		return &fixedOpps{times: []sim.Time{
			10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond,
		}}
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) {
				inject(true,
					&Packet{Size: MTU, Flow: 1, Seq: 1},
					&Packet{Size: MTU, Flow: 1, Seq: 2},
					&Packet{Size: MTU, Flow: 1, Seq: 3})
			})
		}
	}
	mk := func(loop *sim.Loop) Box { return NewTraceBox(loop, mkOpps(), nil) }
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	if len(batched) != 3 {
		t.Fatalf("delivered %d, want 3", len(batched))
	}
	for i, g := range batched {
		if g.at != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, g.at, want[i])
		}
	}
}

// TestTrainDropsMidTrainAtDropTail: a train longer than the droptail bound
// is truncated mid-train; survivors are exactly the prefix that fit, and
// they drain at successive opportunities.
func TestTrainDropsMidTrainAtDropTail(t *testing.T) {
	mkOpps := func() *fixedOpps { return &fixedOpps{times: []sim.Time{5 * sim.Millisecond}} }
	mkPkts := func() []*Packet {
		pkts := make([]*Packet, 6)
		for i := range pkts {
			pkts[i] = &Packet{Size: MTU, Flow: 1, Seq: int64(i)}
		}
		return pkts
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) { inject(true, mkPkts()...) })
		}
	}
	var boxes []Box
	mk := func(loop *sim.Loop) Box {
		b := NewTraceBox(loop, mkOpps(), NewDropTail(4, 0))
		boxes = append(boxes, b)
		return b
	}
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	if len(batched) != 4 {
		t.Fatalf("delivered %d, want the 4 that fit the queue", len(batched))
	}
	for i, g := range batched {
		if g.seq != int64(i) {
			t.Fatalf("survivor %d has seq %d, want %d (head of train must survive)", i, g.seq, i)
		}
	}
	for _, b := range boxes {
		if got := b.Stats().Dropped; got != 2 {
			t.Fatalf("dropped = %d, want 2", got)
		}
	}
}

// TestTrainRateBoxPrecomputedExits: a train through a RateBox serializes
// packet-by-packet with precomputed exits — identical to one-packet trains,
// at exactly size*8/rate spacing.
func TestTrainRateBoxPrecomputedExits(t *testing.T) {
	const bps = 12_000_000 // MTU serializes in 1 ms
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) {
				inject(true,
					&Packet{Size: MTU, Flow: 1, Seq: 1},
					&Packet{Size: MTU, Flow: 1, Seq: 2},
					&Packet{Size: 750, Flow: 1, Seq: 3})
			})
			// A straggler arrives mid-train and queues behind it.
			loop.Schedule(sim.Millisecond/2, func(sim.Time) {
				inject(false, &Packet{Size: MTU, Flow: 2, Seq: 4})
			})
		}
	}
	mk := func(loop *sim.Loop) Box { return NewRateBox(loop, bps, nil) }
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("batched deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	want := []sim.Time{
		1 * sim.Millisecond,         // MTU
		2 * sim.Millisecond,         // MTU
		2*sim.Millisecond + 500_000, // 750 B = 0.5 ms
		3*sim.Millisecond + 500_000, // straggler queues behind the train
	}
	if len(batched) != 4 {
		t.Fatalf("delivered %d, want 4", len(batched))
	}
	for i, g := range batched {
		if g.at != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, g.at, want[i])
		}
	}
}

// TestTrainLossBoxShortensTrain: drops inside a train shorten it without
// reordering, and the RNG consumes draws in train order (whole-train and
// one-packet-train runs see identical loss patterns).
func TestTrainLossBoxShortensTrain(t *testing.T) {
	mkPkts := func() []*Packet {
		pkts := make([]*Packet, 32)
		for i := range pkts {
			pkts[i] = &Packet{Size: MTU, Flow: 1, Seq: int64(i)}
		}
		return pkts
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) { inject(true, mkPkts()...) })
		}
	}
	mk := func(loop *sim.Loop) Box { return NewLossBox(0.3, sim.NewRand(7)) }
	perPacket, batched := runScenario(t, mk, traffic)
	if len(batched) == 0 || len(batched) == 32 {
		t.Fatalf("loss box dropped %d of 32; seed gives a mid-range pattern", 32-len(batched))
	}
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("loss pattern diverges between per-packet and batched runs:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	for i := 1; i < len(batched); i++ {
		if batched[i].seq <= batched[i-1].seq {
			t.Fatalf("survivors reordered: %v", batched)
		}
	}
}

// TestTrainThroughPipeline: a train survives a multi-box pipeline
// (delay -> loss -> delay) intact and identical to per-packet forwarding.
func TestTrainThroughPipeline(t *testing.T) {
	mkPkts := func() []*Packet {
		pkts := make([]*Packet, 10)
		for i := range pkts {
			pkts[i] = &Packet{Size: MTU, Flow: 1, Seq: int64(i)}
		}
		return pkts
	}
	traffic := func(inject func(bool, ...*Packet)) func(*sim.Loop) {
		return func(loop *sim.Loop) {
			loop.Schedule(0, func(sim.Time) { inject(true, mkPkts()...) })
		}
	}
	mk := func(loop *sim.Loop) Box {
		return NewPipeline(
			NewDelayBox(loop, 10*sim.Millisecond),
			NewLossBox(0.2, sim.NewRand(3)),
			NewDelayBox(loop, 5*sim.Millisecond),
		)
	}
	perPacket, batched := runScenario(t, mk, traffic)
	if !equalDeliveries(perPacket, batched) {
		t.Fatalf("pipeline deliveries diverge:\nper-packet: %v\nbatched:    %v", perPacket, batched)
	}
	for _, g := range batched {
		if g.at != 15*sim.Millisecond {
			t.Fatalf("delivery at %v, want 15ms", g.at)
		}
	}
}

// TestTrainGateBoxDrainAsTrain: packets held through an off period leave
// as one train at the restore instant, preserving order.
func TestTrainGateBoxDrainAsTrain(t *testing.T) {
	loop := sim.NewLoop()
	g := NewGateBox(loop, 10*sim.Millisecond, 10*sim.Millisecond, 0, nil, nil)
	var got []delivery
	recordSinks(loop, g, &got)
	// Off period spans [10ms, 20ms): these arrive while off and are held.
	loop.Schedule(12*sim.Millisecond, func(sim.Time) {
		g.Send([]*Packet{{Size: MTU, Flow: 1, Seq: 1}})
		g.Send([]*Packet{{Size: MTU, Flow: 2, Seq: 2}})
	})
	loop.RunUntil(25 * sim.Millisecond)
	if len(got) != 2 {
		t.Fatalf("delivered %d, want 2", len(got))
	}
	for i, g := range got {
		if g.at != 20*sim.Millisecond || g.seq != int64(i+1) {
			t.Fatalf("delivery %d = %+v, want seq %d at 20ms", i, g, i+1)
		}
	}
}

// FuzzTrainSplit checks the train contract under fuzzer-chosen traffic and
// impairments: a burst sent as one train through loss → reorder →
// duplicate → corrupt → TraceBox/droptail must produce the same delivery
// log as the same packets sent one by one as one-packet trains at the same
// instant. Each input byte pair is one packet (size, flow). Both runs must
// also keep every per-box ledger and return every pooled packet.
//
// The burst enters at t=0, trace opportunities fall on whole milliseconds
// and reorder holds end on a half millisecond, so no two of the
// pipeline's events ever tie on the clock: ties are where a train's
// single admission pass and per-packet admissions may legitimately
// schedule in a different order.
func FuzzTrainSplit(f *testing.F) {
	f.Add([]byte{120, 0, 120, 1, 3, 2, 255, 1, 40, 3, 120, 0}, uint64(1), uint8(40), uint8(60), uint8(50), uint8(30), uint8(0), uint8(1), uint8(4))
	f.Add([]byte{1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0}, uint64(7), uint8(0), uint8(255), uint8(255), uint8(0), uint8(128), uint8(2), uint8(2))
	f.Add([]byte{200, 5, 200, 6, 200, 7}, uint64(3), uint8(255), uint8(0), uint8(0), uint8(255), uint8(0), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, spec []byte, seed uint64, lossP, reorderP, dupP, corruptP, corr, gap, queueCap uint8) {
		const maxPkts = 256
		if len(spec) > 2*maxPkts {
			spec = spec[:2*maxPkts]
		}
		prob := func(x uint8) float64 { return float64(x) / 255 }
		run := func(split bool) []delivery {
			loop := sim.NewLoop()
			pool := &PacketPool{}
			loss := NewLossBox(prob(lossP), sim.NewRand(seed))
			reorder := NewReorderBox(loop, prob(reorderP), prob(corr), int(gap%4)+1,
				3*sim.Millisecond+sim.Millisecond/2, sim.NewRand(seed+1))
			dup := NewDuplicateBox(prob(dupP), prob(corr), sim.NewRand(seed+2))
			corrupt := NewCorruptBox(prob(corruptP), prob(corr), sim.NewRand(seed+3))
			link := NewTraceBox(loop, &fixedOpps{times: []sim.Time{sim.Millisecond}}, NewDropTail(int(queueCap), 0))
			pipe := NewPipeline(loss, reorder, dup, corrupt, link)
			var got []delivery
			pipe.SetSink(each(func(p *Packet) {
				got = append(got, delivery{at: loop.Now(), flow: p.Flow, seq: p.Seq})
				pool.Put(p)
			}))
			var pkts []*Packet
			for i := 0; i+1 < len(spec); i += 2 {
				p := pool.Get()
				p.Size = 1 + int(spec[i])*12 // up to two MTUs
				p.Flow = uint64(spec[i+1] % 8)
				p.Seq = int64(i / 2)
				pkts = append(pkts, p)
			}
			loop.Schedule(0, func(sim.Time) {
				if !split {
					pipe.Send(pkts)
					return
				}
				for _, p := range pkts {
					pipe.Send([]*Packet{p})
				}
			})
			loop.Run()

			n := uint64(len(pkts))
			ls, rs, ds, cs, ks := loss.Stats(), reorder.Stats(), dup.Stats(), corrupt.Stats(), link.Stats()
			if ls.Arrived != n || ls.Arrived != ls.Delivered+ls.Dropped {
				t.Fatalf("split=%v loss ledger: offered %d, stats %+v", split, n, ls)
			}
			if rs.Arrived != rs.Delivered || rs.Dropped != 0 || rs.QueueLen != 0 {
				t.Fatalf("split=%v reorder must pass everything and drain: %+v", split, rs)
			}
			if ds.Delivered != ds.Arrived+dup.Duplicated() {
				t.Fatalf("split=%v duplicate ledger: %+v, duplicated %d", split, ds, dup.Duplicated())
			}
			if cs.Arrived != cs.Delivered || cs.Dropped != 0 {
				t.Fatalf("split=%v corrupt must pass everything: %+v", split, cs)
			}
			if ks.Arrived != ks.Delivered+ks.Dropped || ks.QueueLen != 0 {
				t.Fatalf("split=%v trace link ledger: %+v", split, ks)
			}
			if ls.Delivered != rs.Arrived || rs.Delivered != ds.Arrived || ds.Delivered != cs.Arrived || cs.Delivered != ks.Arrived {
				t.Fatalf("split=%v pipeline plumbing: loss %+v reorder %+v dup %+v corrupt %+v link %+v", split, ls, rs, ds, cs, ks)
			}
			if uint64(len(got)) != ks.Delivered {
				t.Fatalf("split=%v sink saw %d, link delivered %d", split, len(got), ks.Delivered)
			}
			if out := pool.Outstanding(); out != 0 {
				t.Fatalf("split=%v pool leak: %d packets outstanding", split, out)
			}
			return got
		}
		reference, train := run(true), run(false)
		if !equalDeliveries(reference, train) {
			t.Fatalf("train deliveries diverge from one-packet trains:\none-packet: %v\ntrain:      %v", reference, train)
		}
	})
}
