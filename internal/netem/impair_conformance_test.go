package netem

import (
	"testing"

	"repro/internal/sim"
)

// This file extends the qdisc conformance suite over the impairment
// vocabulary: a randomized workload is driven through the full pipeline
// (4-state Markov loss → reorder → duplicate → corrupt) on a live loop,
// with every box hot-swapped mid-run by a ScenarioScript, and the shared
// invariants are checked at quiescence:
//
//   - per-box conservation: loss satisfies Arrived == Delivered + Dropped,
//     reorder and corrupt pass everything they admit (Dropped == 0),
//     duplicate satisfies Delivered == Arrived + Duplicated — the inverted
//     ledger identity unique to a box that emits more than it admits;
//   - cross-box plumbing: each box's Delivered equals the next box's
//     Arrived, and the sink count equals the tail box's Delivered;
//   - exactly-once-or-twice: every packet the loss box passes reaches the
//     sink one or two times (twice only while duplication is on), and no
//     dropped packet resurfaces;
//   - pool hygiene: after the reorder holds drain, the get/put ledger
//     balances — no displaced, cloned, or loss-dropped packet leaks.
//
// Workloads come from the same self-contained splitmix64 stream as the
// qdisc suite, so failures are exactly reproducible.
func TestImpairConformance(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64
	}{
		{"seed-1", 0x1111}, {"seed-2", 0x2222}, {"seed-3", 0x3333},
	} {
		t.Run(tc.name, func(t *testing.T) { runImpairConformance(t, tc.seed) })
	}
}

func runImpairConformance(t *testing.T, seed uint64) {
	t.Helper()
	loop := sim.NewLoop()
	rng := &conformanceRNG{state: seed}
	pool := &PacketPool{}

	loss := NewLossBoxModel(NewMarkov4State(0.05, 0.4, 0.3, 0.2, 0.02), sim.NewRand(seed))
	reorder := NewReorderBox(loop, 0.1, 0, 1, 5*sim.Millisecond, sim.NewRand(seed+1))
	dup := NewDuplicateBox(0.1, 0, sim.NewRand(seed+2))
	corrupt := NewCorruptBox(0.05, 0, sim.NewRand(seed+3))
	pipe := NewPipeline(loss, reorder, dup, corrupt)

	// seen[flow][seq] counts sink arrivals per packet identity.
	const nFlows = 8
	seen := make([]map[int64]int, nFlows)
	for i := range seen {
		seen[i] = map[int64]int{}
	}
	var sinkCount, sinkCorrupt uint64
	pipe.SetSink(each(func(pkt *Packet) {
		sinkCount++
		if pkt.Corrupt {
			sinkCorrupt++
		}
		seen[int(pkt.Flow)][pkt.Seq]++
		pool.Put(pkt)
	}))

	// Mid-run hot-swaps: every box changes parameters while packets are in
	// flight (some parked inside the reorder box when its step fires).
	script := NewScenarioScript(loop)
	script.LossModelSwap(40*sim.Millisecond, loss, NewMarkov4State(0.2, 0.5, 0.2, 0.3, 0.1))
	script.ReorderStep(60*sim.Millisecond, reorder, 0.5, 0.3)
	script.DuplicateStep(80*sim.Millisecond, dup, 0.4, 0.2)
	script.CorruptStep(100*sim.Millisecond, corrupt, 0.3, 0.1)
	script.ReorderStep(120*sim.Millisecond, reorder, 0, 0)
	script.DuplicateStep(140*sim.Millisecond, dup, 0, 0)

	// Randomized arrival schedule: bursts of 0-3 packets per millisecond
	// for 160ms, mixing whole trains with the same packets sent one by one
	// as one-packet trains, so both shapes run under every script phase.
	var offered uint64
	nextSeq := make([]int64, nFlows)
	for ms := 0; ms < 160; ms++ {
		n := rng.intn(4)
		if n == 0 {
			continue
		}
		batch := rng.intn(2) == 0
		pkts := make([]*Packet, 0, n)
		for i := 0; i < n; i++ {
			flow := rng.intn(nFlows)
			pkt := pool.Get()
			pkt.Size = 100 + rng.intn(MTU-99)
			pkt.Flow = uint64(flow)
			pkt.Seq = nextSeq[flow]
			nextSeq[flow]++
			offered++
			pkts = append(pkts, pkt)
		}
		loop.Schedule(sim.Time(ms)*sim.Millisecond, func(sim.Time) {
			if batch {
				pipe.Send(pkts)
				return
			}
			for _, pkt := range pkts {
				pipe.Send([]*Packet{pkt})
			}
		})
	}
	loop.Run() // runs until the last reorder hold has drained
	script.Finish(loop.Now())

	ls, rs, ds, cs := loss.Stats(), reorder.Stats(), dup.Stats(), corrupt.Stats()
	// Per-box conservation.
	if ls.Arrived != offered || ls.Arrived != ls.Delivered+ls.Dropped {
		t.Fatalf("loss ledger: offered %d, stats %+v", offered, ls)
	}
	if ls.Dropped == 0 {
		t.Fatal("workload never exercised the 4-state loss path")
	}
	if rs.Dropped != 0 || rs.Arrived != rs.Delivered || rs.QueueLen != 0 {
		t.Fatalf("reorder must pass everything and drain: %+v", rs)
	}
	if ds.Delivered != ds.Arrived+dup.Duplicated() {
		t.Fatalf("duplicate ledger: Delivered %d != Arrived %d + Duplicated %d",
			ds.Delivered, ds.Arrived, dup.Duplicated())
	}
	if dup.Duplicated() == 0 {
		t.Fatal("workload never exercised duplication")
	}
	if cs.Dropped != 0 || cs.Arrived != cs.Delivered {
		t.Fatalf("corrupt must pass everything: %+v", cs)
	}
	if corrupt.Corrupted() == 0 || sinkCorrupt != corrupt.Corrupted() {
		t.Fatalf("corrupt flags: box %d, sink saw %d", corrupt.Corrupted(), sinkCorrupt)
	}
	// Cross-box plumbing: each Delivered feeds the next Arrived.
	if ls.Delivered != rs.Arrived || rs.Delivered != ds.Arrived || ds.Delivered != cs.Arrived {
		t.Fatalf("pipeline plumbing: loss→%d reorder %d→%d dup %d→%d corrupt %d",
			ls.Delivered, rs.Arrived, rs.Delivered, ds.Arrived, ds.Delivered, cs.Arrived)
	}
	if sinkCount != cs.Delivered {
		t.Fatalf("sink saw %d, corrupt delivered %d", sinkCount, cs.Delivered)
	}
	// Exactly-once-or-twice per surviving packet.
	var copies uint64
	for flow := range seen {
		for seq, n := range seen[flow] {
			if n < 1 || n > 2 {
				t.Fatalf("flow %d seq %d delivered %d times", flow, seq, n)
			}
			copies += uint64(n)
		}
	}
	if copies != sinkCount {
		t.Fatalf("identity ledger %d != sink count %d", copies, sinkCount)
	}
	// Pool hygiene: holds drained, clones put back, drops recycled.
	if pool.Outstanding() != 0 {
		t.Fatalf("pool leak: %d packets outstanding after drain", pool.Outstanding())
	}
	// The script recorded every hot-swap as a transition.
	if got := len(script.Transitions()); got != 6 {
		t.Fatalf("script recorded %d transitions, want 6", got)
	}
}
