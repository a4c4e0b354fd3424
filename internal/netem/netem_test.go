package netem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func collect(dst *[]*Packet) Sink {
	return each(func(p *Packet) { *dst = append(*dst, p) })
}

// each adapts a per-packet callback into a Sink that visits every packet
// of every train in delivery order.
func each(fn func(*Packet)) Sink {
	return func(pkts []*Packet) {
		for _, p := range pkts {
			fn(p)
		}
	}
}

func TestWirePassthrough(t *testing.T) {
	w := NewWire()
	var got []*Packet
	w.SetSink(collect(&got))
	p := &Packet{Size: 100, Flow: 1}
	w.Send([]*Packet{p})
	if len(got) != 1 || got[0] != p {
		t.Fatalf("wire did not deliver packet")
	}
	st := w.Stats()
	if st.Arrived != 1 || st.Delivered != 1 || st.DeliveredBytes != 100 {
		t.Fatalf("wire stats = %+v", st)
	}
}

func TestWirePanicsWithoutSink(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Send without sink did not panic")
		}
	}()
	NewWire().Send([]*Packet{{Size: 1}})
}

func TestDelayBoxFixedDelay(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 30*sim.Millisecond)
	var deliveredAt []sim.Time
	d.SetSink(each(func(*Packet) { deliveredAt = append(deliveredAt, loop.Now()) }))

	loop.Schedule(0, func(sim.Time) { d.Send([]*Packet{{Size: MTU}}) })
	loop.Schedule(5*sim.Millisecond, func(sim.Time) { d.Send([]*Packet{{Size: MTU}}) })
	loop.Run()

	want := []sim.Time{30 * sim.Millisecond, 35 * sim.Millisecond}
	if len(deliveredAt) != 2 || deliveredAt[0] != want[0] || deliveredAt[1] != want[1] {
		t.Fatalf("deliveries at %v, want %v", deliveredAt, want)
	}
}

func TestDelayBoxZeroDelay(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 0)
	var got []*Packet
	d.SetSink(collect(&got))
	loop.Schedule(sim.Millisecond, func(sim.Time) { d.Send([]*Packet{{Size: 40}}) })
	loop.Run()
	if len(got) != 1 {
		t.Fatal("zero-delay box did not deliver")
	}
	if loop.Now() != sim.Millisecond {
		t.Fatalf("zero-delay delivery advanced clock to %v", loop.Now())
	}
}

func TestDelayBoxNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewDelayBox(sim.NewLoop(), -1)
}

func TestDelayBoxFIFO(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 10*sim.Millisecond)
	var got []*Packet
	d.SetSink(collect(&got))
	for i := 0; i < 100; i++ {
		seq := int64(i)
		loop.Schedule(sim.Time(i)*sim.Microsecond, func(sim.Time) {
			d.Send([]*Packet{{Size: MTU, Seq: seq}})
		})
	}
	loop.Run()
	for i, p := range got {
		if p.Seq != int64(i) {
			t.Fatalf("out-of-order delivery: got seq %d at %d", p.Seq, i)
		}
	}
}

// Property: for any send schedule, DelayBox delivers each packet exactly
// delay after its send time (the paper's definition of DelayShell).
func TestDelayBoxProperty(t *testing.T) {
	f := func(offsets []uint16, delayMS uint8) bool {
		if len(offsets) == 0 {
			return true
		}
		if len(offsets) > 200 {
			offsets = offsets[:200]
		}
		loop := sim.NewLoop()
		delay := sim.Time(delayMS) * sim.Millisecond
		d := NewDelayBox(loop, delay)
		sendTimes := map[int64]sim.Time{}
		ok := true
		d.SetSink(each(func(p *Packet) {
			if loop.Now()-sendTimes[p.Seq] != delay {
				ok = false
			}
		}))
		for i, off := range offsets {
			seq := int64(i)
			at := sim.Time(off) * sim.Microsecond
			sendTimes[seq] = at
			loop.ScheduleAt(at, func(sim.Time) { d.Send([]*Packet{{Size: 100, Seq: seq}}) })
		}
		loop.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLossBoxZeroAndOne(t *testing.T) {
	rng := sim.NewRand(1)
	never := NewLossBox(0, rng)
	var got []*Packet
	never.SetSink(collect(&got))
	for i := 0; i < 100; i++ {
		never.Send([]*Packet{{Size: 10}})
	}
	if len(got) != 100 {
		t.Fatalf("loss 0 delivered %d/100", len(got))
	}

	always := NewLossBox(1, rng)
	got = nil
	always.SetSink(collect(&got))
	for i := 0; i < 100; i++ {
		always.Send([]*Packet{{Size: 10}})
	}
	if len(got) != 0 {
		t.Fatalf("loss 1 delivered %d/100", len(got))
	}
	if always.Stats().Dropped != 100 {
		t.Fatalf("loss 1 dropped = %d, want 100", always.Stats().Dropped)
	}
}

func TestLossBoxApproximatesRate(t *testing.T) {
	rng := sim.NewRand(2)
	l := NewLossBox(0.3, rng)
	delivered := 0
	l.SetSink(each(func(*Packet) { delivered++ }))
	const n = 20000
	for i := 0; i < n; i++ {
		l.Send([]*Packet{{Size: 10}})
	}
	rate := float64(n-delivered) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("observed loss rate %v, want ~0.3", rate)
	}
}

func TestLossBoxInvalidProbPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid probability did not panic")
		}
	}()
	NewLossBox(1.5, sim.NewRand(1))
}

func TestRateBoxSerialization(t *testing.T) {
	loop := sim.NewLoop()
	// 12 Mbit/s: one 1500-byte packet per millisecond.
	r := NewRateBox(loop, 12_000_000, nil)
	var at []sim.Time
	r.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(0, func(sim.Time) {
		r.Send([]*Packet{{Size: MTU}})
		r.Send([]*Packet{{Size: MTU}})
		r.Send([]*Packet{{Size: MTU}})
	})
	loop.Run()
	want := []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 3 * sim.Millisecond}
	if len(at) != 3 {
		t.Fatalf("delivered %d, want 3", len(at))
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("delivery %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestRateBoxQueueLimit(t *testing.T) {
	loop := sim.NewLoop()
	r := NewRateBox(loop, 12_000_000, NewDropTail(2, 0))
	delivered := 0
	r.SetSink(each(func(*Packet) { delivered++ }))
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			r.Send([]*Packet{{Size: MTU}})
		}
	})
	loop.Run()
	// One in flight is popped immediately; two queue; the rest drop.
	if r.Stats().Dropped == 0 {
		t.Fatal("expected drops with queue limit 2")
	}
	if delivered+int(r.Stats().Dropped) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", delivered, r.Stats().Dropped)
	}
}

func TestRateBoxInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive rate did not panic")
		}
	}()
	NewRateBox(sim.NewLoop(), 0, nil)
}

func TestDropTailLimits(t *testing.T) {
	q := NewDropTail(2, 0)
	if !q.Enqueue(&Packet{Size: 1}, 0) || !q.Enqueue(&Packet{Size: 2}, 0) {
		t.Fatal("enqueues under limit failed")
	}
	if q.Enqueue(&Packet{Size: 3}, 0) {
		t.Fatal("enqueue over packet limit succeeded")
	}
	if q.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", q.Dropped())
	}
	if qs := q.QueueStats(); qs.TailDrops != 1 || qs.AQMDrops != 0 || qs.Enqueued != 2 {
		t.Fatalf("queue stats = %+v", qs)
	}

	qb := NewDropTail(0, 100)
	if !qb.Enqueue(&Packet{Size: 60}, 0) {
		t.Fatal("enqueue under byte limit failed")
	}
	if qb.Enqueue(&Packet{Size: 50}, 0) {
		t.Fatal("enqueue over byte limit succeeded")
	}
	if !qb.Enqueue(&Packet{Size: 40}, 0) {
		t.Fatal("enqueue exactly at byte limit failed")
	}
}

// A packet larger than the byte bound can never be admitted — not even
// into an empty queue — and each attempt is a tail drop, not an error.
func TestDropTailOversizedVsByteBound(t *testing.T) {
	q := NewDropTail(0, 1000)
	if q.Enqueue(&Packet{Size: 1500}, 0) {
		t.Fatal("oversized packet admitted into empty byte-bounded queue")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("after oversized drop Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	if !q.Enqueue(&Packet{Size: 900}, 0) {
		t.Fatal("fitting packet rejected after oversized drop")
	}
	if q.Enqueue(&Packet{Size: 1500}, 0) {
		t.Fatal("oversized packet admitted into non-empty queue")
	}
	if qs := q.QueueStats(); qs.TailDrops != 2 || qs.Enqueued != 1 {
		t.Fatalf("queue stats = %+v", qs)
	}
}

func TestDropTailFIFOAndCompaction(t *testing.T) {
	q := NewDropTail(0, 0)
	const n = 1000
	for i := 0; i < n; i++ {
		q.Enqueue(&Packet{Size: 1, Seq: int64(i)}, 0)
	}
	for i := 0; i < n; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != int64(i) {
			t.Fatalf("dequeue %d returned %v", i, p)
		}
	}
	if q.Dequeue(0) != nil {
		t.Fatal("dequeue from empty returned packet")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("empty queue Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
}

// Sustained churn with a standing backlog exercises ring compaction (the
// dead prefix is trimmed once it dominates): FIFO order and byte gauges
// must survive arbitrarily long push/pop interleavings.
func TestRingCompactionUnderChurn(t *testing.T) {
	q := NewDropTail(0, 0)
	next, out := int64(0), int64(0)
	bytes := 0
	const standing = 37 // awkward non-power-of-two backlog
	for round := 0; round < 3000; round++ {
		for q.Len() < standing {
			q.Enqueue(&Packet{Size: int(next%7) + 1, Seq: next}, 0)
			bytes += int(next%7) + 1
			next++
		}
		for i := 0; i < 11; i++ {
			p := q.Dequeue(0)
			if p == nil || p.Seq != out {
				t.Fatalf("round %d: dequeue returned %v, want seq %d", round, p, out)
			}
			bytes -= p.Size
			out++
		}
		if q.Bytes() != bytes {
			t.Fatalf("round %d: Bytes=%d want %d", round, q.Bytes(), bytes)
		}
	}
	// The backing slice must stay bounded: compaction keeps it within a
	// small multiple of the standing backlog, not the total throughput.
	if cap(q.ring.pkts) > 16*standing {
		t.Fatalf("ring never compacted: cap=%d for standing backlog %d", cap(q.ring.pkts), standing)
	}
}

func TestDropTailPeek(t *testing.T) {
	q := NewDropTail(0, 0)
	if q.Peek() != nil {
		t.Fatal("peek on empty returned packet")
	}
	p := &Packet{Size: 5}
	q.Enqueue(p, 0)
	if q.Peek() != p {
		t.Fatal("peek did not return head")
	}
	if q.Len() != 1 {
		t.Fatal("peek removed the packet")
	}
}

// Property: interleaved enqueue/dequeue keeps byte accounting exact.
func TestDropTailByteAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewDropTail(0, 0)
		want := 0
		var sizes []int
		for _, op := range ops {
			if op%3 == 0 && len(sizes) > 0 {
				p := q.Dequeue(0)
				if p == nil {
					return false
				}
				want -= sizes[0]
				sizes = sizes[1:]
			} else {
				size := int(op) + 1
				q.Enqueue(&Packet{Size: size}, 0)
				sizes = append(sizes, size)
				want += size
			}
			if q.Bytes() != want || q.Len() != len(sizes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Dropping at the qdisc boundary must recycle pooled packets into their
// origin pool; hand-built packets are left to the garbage collector.
func TestQdiscDropRecyclesPooledPackets(t *testing.T) {
	var pool PacketPool
	q := NewDropTail(1, 0)
	keeper := pool.Get()
	keeper.Size = 10
	victim := pool.Get()
	victim.Size = 20
	q.Enqueue(keeper, 0)
	if q.Enqueue(victim, 0) {
		t.Fatal("enqueue over limit succeeded")
	}
	if got := pool.Get(); got != victim {
		t.Fatalf("dropped packet not recycled: pool returned %p, want %p", got, victim)
	}
	// The hand-built path must not panic or pollute the pool.
	q2 := NewDropTail(0, 5)
	q2.Enqueue(&Packet{Size: 50}, 0)
	if got := pool.Get(); got == victim {
		t.Fatal("hand-built drop reached the pool")
	}
}

// fixedOpps is a stateful opportunity iterator over a repeating schedule,
// honoring the OpportunitySource contract: each call consumes one
// opportunity; opportunities before `after` are skipped.
type fixedOpps struct {
	times []sim.Time
	idx   int
}

func (f *fixedOpps) Next(after sim.Time) sim.Time {
	period := f.times[len(f.times)-1]
	for {
		base := sim.Time(f.idx/len(f.times)) * period
		t := base + f.times[f.idx%len(f.times)]
		f.idx++
		if t >= after {
			return t
		}
	}
}

func TestTraceBoxReleasesAtOpportunities(t *testing.T) {
	loop := sim.NewLoop()
	opps := &fixedOpps{times: []sim.Time{
		10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond,
	}}
	tb := NewTraceBox(loop, opps, nil)
	var at []sim.Time
	tb.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(0, func(sim.Time) {
		tb.Send([]*Packet{{Size: MTU}})
		tb.Send([]*Packet{{Size: MTU}})
	})
	loop.Run()
	if len(at) != 2 || at[0] != 10*sim.Millisecond || at[1] != 20*sim.Millisecond {
		t.Fatalf("deliveries at %v", at)
	}
}

func TestTraceBoxSmallPacketConsumesOpportunity(t *testing.T) {
	loop := sim.NewLoop()
	opps := &fixedOpps{times: []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond}}
	tb := NewTraceBox(loop, opps, nil)
	var at []sim.Time
	tb.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(0, func(sim.Time) {
		tb.Send([]*Packet{{Size: 40}}) // tiny packet still takes a full opportunity
		tb.Send([]*Packet{{Size: 40}})
	})
	loop.Run()
	if len(at) != 2 || at[0] != 10*sim.Millisecond || at[1] != 20*sim.Millisecond {
		t.Fatalf("deliveries at %v", at)
	}
}

func TestTraceBoxLargePacketMultipleOpportunities(t *testing.T) {
	loop := sim.NewLoop()
	opps := &fixedOpps{times: []sim.Time{
		10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond,
	}}
	tb := NewTraceBox(loop, opps, nil)
	var at []sim.Time
	tb.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(0, func(sim.Time) {
		tb.Send([]*Packet{{Size: 2 * MTU}}) // needs two opportunities
	})
	loop.Run()
	if len(at) != 1 || at[0] != 20*sim.Millisecond {
		t.Fatalf("deliveries at %v, want [20ms]", at)
	}
}

func TestTraceBoxIdleThenBurst(t *testing.T) {
	loop := sim.NewLoop()
	opps := &fixedOpps{times: []sim.Time{5 * sim.Millisecond, 10 * sim.Millisecond}}
	tb := NewTraceBox(loop, opps, nil)
	var at []sim.Time
	tb.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	// Send long after early opportunities have passed; the box must use the
	// next future opportunity (looped), not a stale one.
	loop.Schedule(42*sim.Millisecond, func(sim.Time) { tb.Send([]*Packet{{Size: MTU}}) })
	loop.Run()
	if len(at) != 1 || at[0] <= 42*sim.Millisecond {
		t.Fatalf("delivery at %v, want >42ms", at)
	}
}

func TestTraceBoxDropTail(t *testing.T) {
	loop := sim.NewLoop()
	opps := &fixedOpps{times: []sim.Time{100 * sim.Millisecond}}
	tb := NewTraceBox(loop, opps, NewDropTail(3, 0))
	delivered := 0
	tb.SetSink(each(func(*Packet) { delivered++ }))
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			tb.Send([]*Packet{{Size: MTU}})
		}
	})
	loop.RunUntil(sim.Second)
	if tb.Stats().Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", tb.Stats().Dropped)
	}
}

func TestPipelineOrderAndDelivery(t *testing.T) {
	loop := sim.NewLoop()
	d1 := NewDelayBox(loop, 10*sim.Millisecond)
	d2 := NewDelayBox(loop, 5*sim.Millisecond)
	p := NewPipeline(d1, d2)
	var at []sim.Time
	p.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(0, func(sim.Time) { p.Send([]*Packet{{Size: MTU}}) })
	loop.Run()
	if len(at) != 1 || at[0] != 15*sim.Millisecond {
		t.Fatalf("pipeline delivery at %v, want 15ms", at)
	}
}

func TestEmptyPipelineIsWire(t *testing.T) {
	p := NewPipeline()
	var got []*Packet
	p.SetSink(collect(&got))
	p.Send([]*Packet{{Size: 7}})
	if len(got) != 1 {
		t.Fatal("empty pipeline did not deliver")
	}
}

func TestPipelineStats(t *testing.T) {
	loop := sim.NewLoop()
	lossy := NewLossBox(1, sim.NewRand(1))
	p := NewPipeline(NewDelayBox(loop, sim.Millisecond), lossy)
	p.SetSink(each(func(*Packet) {}))
	loop.Schedule(0, func(sim.Time) { p.Send([]*Packet{{Size: 10}}) })
	loop.Run()
	st := p.Stats()
	if st.Arrived != 1 || st.Delivered != 0 || st.Dropped != 1 {
		t.Fatalf("pipeline stats = %+v", st)
	}
}

func TestDuplexNest(t *testing.T) {
	loop := sim.NewLoop()
	inner := NewDuplex(
		NewPipeline(NewDelayBox(loop, 10*sim.Millisecond)),
		NewPipeline(NewDelayBox(loop, 10*sim.Millisecond)),
	)
	outer := NewDuplex(
		NewPipeline(NewDelayBox(loop, 5*sim.Millisecond)),
		NewPipeline(NewDelayBox(loop, 5*sim.Millisecond)),
	)
	combined := inner.Nest(outer)
	var upAt, downAt sim.Time
	combined.Up.SetSink(each(func(*Packet) { upAt = loop.Now() }))
	combined.Down.SetSink(each(func(*Packet) { downAt = loop.Now() }))
	loop.Schedule(0, func(sim.Time) {
		combined.Up.Send([]*Packet{{Size: MTU}})
		combined.Down.Send([]*Packet{{Size: MTU}})
	})
	loop.Run()
	if upAt != 15*sim.Millisecond || downAt != 15*sim.Millisecond {
		t.Fatalf("nested delivery up=%v down=%v, want 15ms each", upAt, downAt)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Flow: 3, Seq: 9, Size: 1500}
	if p.String() != "pkt{flow=3 seq=9 size=1500}" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestDelayBoxStats(t *testing.T) {
	loop := sim.NewLoop()
	d := NewDelayBox(loop, 5*sim.Millisecond)
	d.SetSink(each(func(*Packet) {}))
	loop.Schedule(0, func(sim.Time) {
		for i := 0; i < 10; i++ {
			d.Send([]*Packet{{Size: 100}})
		}
	})
	loop.RunUntil(sim.Millisecond)
	if st := d.Stats(); st.QueueLen != 10 || st.Arrived != 10 || st.MaxQueueLen != 10 {
		t.Fatalf("mid-flight stats = %+v", st)
	}
	loop.Run()
	st := d.Stats()
	if st.Delivered != 10 || st.QueueLen != 0 || st.QueueBytes != 0 || st.DeliveredBytes != 1000 {
		t.Fatalf("final stats = %+v", st)
	}
}

func TestGateBoxPassesWhileOn(t *testing.T) {
	loop := sim.NewLoop()
	g := NewGateBox(loop, 100*sim.Millisecond, 50*sim.Millisecond, 0, nil, nil)
	var at []sim.Time
	g.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(10*sim.Millisecond, func(sim.Time) { g.Send([]*Packet{{Size: MTU}}) })
	loop.RunUntil(400 * sim.Millisecond)
	if len(at) != 1 || at[0] != 10*sim.Millisecond {
		t.Fatalf("on-period delivery at %v, want 10ms", at)
	}
}

func TestGateBoxHoldsWhileOff(t *testing.T) {
	loop := sim.NewLoop()
	// On 100ms, off 50ms: off during [100,150).
	g := NewGateBox(loop, 100*sim.Millisecond, 50*sim.Millisecond, 0, nil, nil)
	var at []sim.Time
	g.SetSink(each(func(*Packet) { at = append(at, loop.Now()) }))
	loop.Schedule(120*sim.Millisecond, func(sim.Time) { g.Send([]*Packet{{Size: MTU}}) })
	loop.Schedule(130*sim.Millisecond, func(sim.Time) { g.Send([]*Packet{{Size: MTU}}) })
	loop.RunUntil(400 * sim.Millisecond)
	if len(at) != 2 {
		t.Fatalf("delivered %d packets", len(at))
	}
	for i, a := range at {
		if a != 150*sim.Millisecond {
			t.Fatalf("held packet %d released at %v, want 150ms", i, a)
		}
	}
	if g.Stats().Delivered != 2 {
		t.Fatalf("stats = %+v", g.Stats())
	}
}

func TestGateBoxAlwaysOnWithZeroOff(t *testing.T) {
	loop := sim.NewLoop()
	g := NewGateBox(loop, 10*sim.Millisecond, 0, 0, nil, nil)
	n := 0
	g.SetSink(each(func(*Packet) { n++ }))
	for i := 0; i < 100; i++ {
		loop.Schedule(sim.Time(i)*sim.Millisecond, func(sim.Time) { g.Send([]*Packet{{Size: 1}}) })
	}
	loop.Run()
	if n != 100 {
		t.Fatalf("always-on gate delivered %d/100", n)
	}
	if !g.On() {
		t.Fatal("gate with zero off-period turned off")
	}
}

func TestGateBoxQueueLimitDrops(t *testing.T) {
	loop := sim.NewLoop()
	g := NewGateBox(loop, 100*sim.Millisecond, 100*sim.Millisecond, 0, nil, NewDropTail(1, 0))
	n := 0
	g.SetSink(each(func(*Packet) { n++ }))
	loop.Schedule(110*sim.Millisecond, func(sim.Time) {
		g.Send([]*Packet{{Size: 1}})
		g.Send([]*Packet{{Size: 1}}) // over the 1-packet outage queue
	})
	loop.RunUntil(500 * sim.Millisecond)
	if n != 1 || g.Stats().Dropped != 1 {
		t.Fatalf("delivered %d dropped %d, want 1/1", n, g.Stats().Dropped)
	}
}

func TestGateBoxInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid gate accepted")
		}
	}()
	NewGateBox(sim.NewLoop(), 0, 10, 0, nil, nil)
}

func TestGateBoxJitterRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("jitter without RNG accepted")
		}
	}()
	NewGateBox(sim.NewLoop(), 10, 10, 0.5, nil, nil)
}
