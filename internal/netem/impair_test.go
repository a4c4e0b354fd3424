package netem

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestReorderBoxDisplacesOnVirtualClock checks the core reordering
// mechanic: a displaced packet is overtaken by everything sent during its
// hold interval, then released.
func TestReorderBoxDisplacesOnVirtualClock(t *testing.T) {
	loop := sim.NewLoop()
	// Seed chosen so packet 2 is displaced (verified by the Displaced count
	// below); hold 10ms while senders emit every 1ms.
	r := NewReorderBox(loop, 0.2, 0, 1, 10*sim.Millisecond, sim.NewRand(21))
	var order []int64
	r.SetSink(each(func(pkt *Packet) { order = append(order, pkt.Seq) }))
	for i := 0; i < 12; i++ {
		at := sim.Time(i) * sim.Millisecond
		seq := int64(i)
		loop.Schedule(at, func(sim.Time) { r.Send([]*Packet{{Size: 100, Seq: seq}}) })
	}
	loop.Run()
	if r.Displaced() == 0 {
		t.Fatal("no packet displaced — pick a different seed")
	}
	if len(order) != 12 {
		t.Fatalf("delivered %d packets, want 12 (reordering must not lose)", len(order))
	}
	// Every displaced packet must appear later than its successor.
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatalf("delivery order %v is sorted — nothing was overtaken", order)
	}
	st := r.Stats()
	if st.Arrived != 12 || st.Delivered != 12 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.QueueLen != 0 || st.QueueBytes != 0 {
		t.Fatalf("hold queue not drained: %+v", st)
	}
	if st.MaxQueueLen < 1 {
		t.Fatalf("MaxQueueLen = %d, want >= 1", st.MaxQueueLen)
	}
}

// TestReorderBoxGapStride checks the gap parameter: with gap = 2 and
// probability 1, exactly every second packet is displaced.
func TestReorderBoxGapStride(t *testing.T) {
	loop := sim.NewLoop()
	r := NewReorderBox(loop, 1, 0, 2, 5*sim.Millisecond, sim.NewRand(1))
	var order []int64
	r.SetSink(each(func(pkt *Packet) { order = append(order, pkt.Seq) }))
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 8; i++ {
			r.Send([]*Packet{{Size: 100, Seq: int64(i)}})
		}
	})
	loop.Run()
	if got := r.Displaced(); got != 4 {
		t.Fatalf("displaced %d of 8 with gap 2 prob 1, want 4", got)
	}
	// Odd seqs (2nd, 4th, ... packets) are held and released together after
	// the evens passed through.
	want := []int64{0, 2, 4, 6, 1, 3, 5, 7}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
}

// TestImpairDrawContract pins the draw-count contract for all three boxes:
// one draw per packet while enabled, zero while disabled — the property
// that keeps pre-existing artifacts byte-identical with a disabled box in
// the pipeline and keeps scripted parameter steps aligned.
func TestImpairDrawContract(t *testing.T) {
	loop := sim.NewLoop()
	sinkhole := func([]*Packet) {}

	cases := []struct {
		name    string
		enabled func(rng *sim.Rand) Sink // returns Send with prob > 0
		disab   func(rng *sim.Rand) Sink // returns Send with prob == 0
	}{
		{
			"reorder",
			func(rng *sim.Rand) Sink {
				b := NewReorderBox(loop, 0.3, 0.2, 1, 0, rng)
				b.SetSink(sinkhole)
				return b.Send
			},
			func(rng *sim.Rand) Sink {
				b := NewReorderBox(loop, 0, 0, 1, 0, rng)
				b.SetSink(sinkhole)
				return b.Send
			},
		},
		{
			"duplicate",
			func(rng *sim.Rand) Sink {
				b := NewDuplicateBox(0.3, 0.2, rng)
				b.SetSink(sinkhole)
				return b.Send
			},
			func(rng *sim.Rand) Sink {
				b := NewDuplicateBox(0, 0, rng)
				b.SetSink(sinkhole)
				return b.Send
			},
		},
		{
			"corrupt",
			func(rng *sim.Rand) Sink {
				b := NewCorruptBox(0.3, 0.2, rng)
				b.SetSink(sinkhole)
				return b.Send
			},
			func(rng *sim.Rand) Sink {
				b := NewCorruptBox(0, 0, rng)
				b.SetSink(sinkhole)
				return b.Send
			},
		},
	}
	const n = 97
	for _, tc := range cases {
		rng := sim.NewRand(42)
		send := tc.enabled(rng)
		loop.Schedule(0, func(sim.Time) {
			for i := 0; i < n; i++ {
				send([]*Packet{{Size: 100}})
			}
		})
		loop.Run()
		ref := sim.NewRand(42)
		for i := 0; i < n; i++ {
			ref.Float64()
		}
		if rng.Float64() != ref.Float64() {
			t.Errorf("%s: enabled box did not consume exactly one draw per packet", tc.name)
		}

		rng2 := sim.NewRand(7)
		send2 := tc.disab(rng2)
		loop.Schedule(0, func(sim.Time) {
			for i := 0; i < n; i++ {
				send2([]*Packet{{Size: 100}})
			}
		})
		loop.Run()
		if rng2.Float64() != sim.NewRand(7).Float64() {
			t.Errorf("%s: disabled box consumed RNG draws", tc.name)
		}
	}
}

// TestDisabledBoxesPreserveTrains: a disabled impairment box must pass a
// train to its sink undivided, in ONE call — splitting trains would change
// downstream DelayBox train grouping and therefore artifact bytes.
func TestDisabledBoxesPreserveTrains(t *testing.T) {
	loop := sim.NewLoop()
	pkts := []*Packet{{Size: 1}, {Size: 2}, {Size: 3}}
	check := func(name string, b Box) {
		calls, got := 0, 0
		b.SetSink(func(train []*Packet) { calls++; got = len(train) })
		loop.Schedule(0, func(sim.Time) { b.Send(pkts) })
		loop.Run()
		if calls != 1 || got != 3 {
			t.Errorf("%s: sink calls=%d len=%d, want 1 call of 3", name, calls, got)
		}
	}
	check("reorder", NewReorderBox(loop, 0, 0, 1, sim.Millisecond, sim.NewRand(1)))
	check("duplicate", NewDuplicateBox(0, 0, sim.NewRand(1)))
	check("corrupt", NewCorruptBox(0, 0, sim.NewRand(1)))
}

// TestDuplicateBoxClonesFromPool: clones come from the original's pool (the
// ledger counts them), carry the original's metadata, follow immediately
// after the original, and recycling both sides balances the pool.
func TestDuplicateBoxClonesFromPool(t *testing.T) {
	loop := sim.NewLoop()
	var pool PacketPool
	d := NewDuplicateBox(1, 0, sim.NewRand(5)) // duplicate everything
	var got []*Packet
	d.SetSink(each(func(pkt *Packet) { got = append(got, pkt) }))
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 4; i++ {
			pkt := pool.Get()
			pkt.Size, pkt.Flow, pkt.Seq, pkt.ECT = 100+i, 7, int64(i), true
			d.Send([]*Packet{pkt})
		}
	})
	loop.Run()
	if len(got) != 8 {
		t.Fatalf("delivered %d packets, want 8", len(got))
	}
	for i := 0; i < 8; i += 2 {
		orig, cp := got[i], got[i+1]
		if cp == orig {
			t.Fatal("clone is the original pointer")
		}
		if cp.Size != orig.Size || cp.Flow != orig.Flow || cp.Seq != orig.Seq || cp.ECT != orig.ECT {
			t.Fatalf("clone metadata %+v differs from original %+v", cp, orig)
		}
	}
	if got := pool.Outstanding(); got != 8 {
		t.Fatalf("pool outstanding = %d, want 8 (4 originals + 4 clones)", got)
	}
	for _, pkt := range got {
		pool.Put(pkt)
	}
	if got := pool.Outstanding(); got != 0 {
		t.Fatalf("pool outstanding after recycle = %d, want 0", got)
	}
	if d.Duplicated() != 4 {
		t.Fatalf("Duplicated = %d, want 4", d.Duplicated())
	}
	st := d.Stats()
	if st.Arrived != 4 || st.Delivered != 8 {
		t.Fatalf("stats = %+v, want Delivered = Arrived + Duplicated", st)
	}
}

// TestDuplicateBoxBatchSplicesClones: clones ride in the same train as
// their originals, spliced directly after them.
func TestDuplicateBoxBatchSplicesClones(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDuplicateBox(1, 0, sim.NewRand(5))
	var batches [][]int64
	d.SetSink(func(pkts []*Packet) {
		var seqs []int64
		for _, p := range pkts {
			seqs = append(seqs, p.Seq)
		}
		batches = append(batches, seqs)
	})
	loop.Schedule(0, func(sim.Time) {
		d.Send([]*Packet{{Seq: 1}, {Seq: 2}, {Seq: 3}})
	})
	loop.Run()
	if len(batches) != 1 || fmt.Sprint(batches[0]) != "[1 1 2 2 3 3]" {
		t.Fatalf("batches = %v, want one train [1 1 2 2 3 3]", batches)
	}
}

// TestCorruptBoxFlagsInPlace: corrupted packets still flow (occupying
// capacity), only flagged; stats conserve.
func TestCorruptBoxFlagsInPlace(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCorruptBox(0.3, 0, sim.NewRand(9))
	var flagged, clean int
	c.SetSink(each(func(pkt *Packet) {
		if pkt.Corrupt {
			flagged++
		} else {
			clean++
		}
	}))
	const n = 1000
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < n; i++ {
			c.Send([]*Packet{{Size: 100}})
		}
	})
	loop.Run()
	if flagged+clean != n {
		t.Fatalf("delivered %d packets, want %d (corruption must not drop)", flagged+clean, n)
	}
	if uint64(flagged) != c.Corrupted() {
		t.Fatalf("flagged %d != Corrupted() %d", flagged, c.Corrupted())
	}
	if flagged < n/5 || flagged > n/2 {
		t.Fatalf("flagged %d of %d at p=0.3, implausible", flagged, n)
	}
	st := c.Stats()
	if st.Arrived != n || st.Delivered != n || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestImpairScriptSteps drives all three scripted steps mid-run and pins
// determinism, transition labels, and that a step back to zero restores
// pure passthrough.
func TestImpairScriptSteps(t *testing.T) {
	run := func() (string, []string) {
		loop := sim.NewLoop()
		r := NewReorderBox(loop, 0, 0, 1, 2*sim.Millisecond, sim.NewRand(11))
		d := NewDuplicateBox(0, 0, sim.NewRand(12))
		c := NewCorruptBox(0, 0, sim.NewRand(13))
		r.SetSink(d.Send)
		d.SetSink(c.Send)
		var b strings.Builder
		c.SetSink(each(func(pkt *Packet) {
			switch {
			case pkt.Corrupt:
				b.WriteByte('x')
			default:
				b.WriteByte('0' + byte(pkt.Seq%10))
			}
		}))
		script := NewScenarioScript(loop)
		script.ReorderStep(5*sim.Millisecond, r, 0.5, 0.2)
		script.DuplicateStep(10*sim.Millisecond, d, 0.3, 0)
		script.CorruptStep(15*sim.Millisecond, c, 0.4, 0)
		script.ReorderStep(20*sim.Millisecond, r, 0, 0)
		script.DuplicateStep(20*sim.Millisecond, d, 0, 0)
		script.CorruptStep(20*sim.Millisecond, c, 0, 0)
		for i := 0; i < 50; i++ {
			at := sim.Time(i) * sim.Millisecond / 2
			seq := int64(i)
			loop.Schedule(at, func(sim.Time) { r.Send([]*Packet{{Size: 100, Seq: seq}}) })
		}
		loop.Run()
		script.Finish(loop.Now())
		var labels []string
		for _, tr := range script.Transitions() {
			labels = append(labels, tr.Label)
		}
		return b.String(), labels
	}
	first, labels := run()
	second, _ := run()
	if first != second {
		t.Fatalf("scripted impairment run not deterministic:\n%s\n%s", first, second)
	}
	wantLabels := []string{
		"reorder-0.5/0.2", "duplicate-0.3/0", "corrupt-0.4/0",
		"reorder-0/0", "duplicate-0/0", "corrupt-0/0",
	}
	if fmt.Sprint(labels) != fmt.Sprint(wantLabels) {
		t.Fatalf("transition labels = %v, want %v", labels, wantLabels)
	}
	// After t = 20ms all boxes are disabled again. Packets displaced just
	// before the step still drain from their 2ms holds until t = 22ms, so
	// assert cleanliness from packet 45 (sent at 22.5ms) on: in-order,
	// unduplicated, uncorrupted.
	tail := first[len(first)-5:]
	if tail != "56789" {
		t.Fatalf("post-disable tail = %q, want clean in-order digits 56789", tail)
	}
	// And the middle must actually show each impairment.
	if !strings.Contains(first, "x") {
		t.Fatal("no corrupted packet in transcript")
	}
}

// TestImpairValidationPanics pins constructor validation for the boxes.
func TestImpairValidationPanics(t *testing.T) {
	loop := sim.NewLoop()
	cases := []func(){
		func() { NewReorderBox(loop, -0.1, 0, 1, 0, sim.NewRand(1)) },
		func() { NewReorderBox(loop, 0.5, 1.1, 1, 0, sim.NewRand(1)) },
		func() { NewReorderBox(loop, 0.5, 0, 1, -sim.Millisecond, sim.NewRand(1)) },
		func() { NewDuplicateBox(1.5, 0, sim.NewRand(1)) },
		func() { NewDuplicateBox(0.5, -0.2, sim.NewRand(1)) },
		func() { NewCorruptBox(-1, 0, sim.NewRand(1)) },
		func() { NewCorruptBox(0.5, 2, sim.NewRand(1)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
