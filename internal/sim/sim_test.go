package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestLoopStartsAtZero(t *testing.T) {
	l := NewLoop()
	if l.Now() != 0 {
		t.Fatalf("new loop Now() = %v, want 0", l.Now())
	}
	if l.Pending() != 0 {
		t.Fatalf("new loop Pending() = %d, want 0", l.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	l := NewLoop()
	var order []int
	l.Schedule(30*Millisecond, func(Time) { order = append(order, 3) })
	l.Schedule(10*Millisecond, func(Time) { order = append(order, 1) })
	l.Schedule(20*Millisecond, func(Time) { order = append(order, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	l := NewLoop()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(5*Millisecond, func(Time) { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time fired out of order: %v", order)
		}
	}
}

// TestRearmOrdersBySeq pins the single ordering key (at, seq): among events
// due at one instant, a Timer rearmed onto that instant takes a fresh
// sequence number and fires after every event already scheduled there,
// even one scheduled after the timer's first arming.
func TestRearmOrdersBySeq(t *testing.T) {
	l := NewLoop()
	var order []string
	tm := l.NewTimer(func(Time) { order = append(order, "timer") })
	tm.Reset(Millisecond)
	l.Schedule(Millisecond, func(Time) { order = append(order, "event") })
	tm.Reset(Millisecond)
	l.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "timer" {
		t.Fatalf("order = %v, want [event timer]", order)
	}
}

func TestClockAdvances(t *testing.T) {
	l := NewLoop()
	var at Time
	l.Schedule(42*Millisecond, func(now Time) { at = now })
	end := l.Run()
	if at != 42*Millisecond {
		t.Fatalf("event fired at %v, want 42ms", at)
	}
	if end != 42*Millisecond {
		t.Fatalf("Run returned %v, want 42ms", end)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	l := NewLoop()
	l.Schedule(10*Millisecond, func(now Time) {
		l.Schedule(-5*Millisecond, func(inner Time) {
			if inner != now {
				t.Errorf("negative delay fired at %v, want %v", inner, now)
			}
		})
	})
	l.Run()
}

func TestScheduleAtPastClamped(t *testing.T) {
	l := NewLoop()
	l.Schedule(10*Millisecond, func(now Time) {
		l.ScheduleAt(3*Millisecond, func(inner Time) {
			if inner != 10*Millisecond {
				t.Errorf("past event fired at %v, want 10ms", inner)
			}
		})
	})
	l.Run()
}

func TestCancel(t *testing.T) {
	l := NewLoop()
	fired := false
	tm := l.NewTimer(func(Time) { fired = true })
	tm.Reset(Millisecond)
	tm.Stop()
	l.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0 (a wheel-resident firing unlinks at once)", l.Pending())
	}
}

func TestCancelDuringRun(t *testing.T) {
	l := NewLoop()
	fired := false
	tm := l.NewTimer(func(Time) { fired = true })
	l.Schedule(Millisecond, func(Time) { tm.Stop() })
	tm.Reset(2 * Millisecond)
	l.Run()
	if fired {
		t.Fatal("timer stopped mid-run still fired")
	}
}

func TestNestedScheduling(t *testing.T) {
	l := NewLoop()
	depth := 0
	var recurse Handler
	recurse = func(Time) {
		depth++
		if depth < 100 {
			l.Schedule(Millisecond, recurse)
		}
	}
	l.Schedule(Millisecond, recurse)
	end := l.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if end != 100*Millisecond {
		t.Fatalf("end = %v, want 100ms", end)
	}
}

func TestRunUntil(t *testing.T) {
	l := NewLoop()
	var fired []Time
	for _, d := range []Time{Millisecond, 2 * Millisecond, 5 * Millisecond} {
		l.Schedule(d, func(now Time) { fired = append(fired, now) })
	}
	l.RunUntil(3 * Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if l.Now() != 3*Millisecond {
		t.Fatalf("Now = %v, want 3ms", l.Now())
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", l.Pending())
	}
	l.Run()
	if len(fired) != 3 {
		t.Fatalf("after Run fired %d events, want 3", len(fired))
	}
}

func TestRunFor(t *testing.T) {
	l := NewLoop()
	l.RunFor(10 * Millisecond)
	if l.Now() != 10*Millisecond {
		t.Fatalf("Now = %v, want 10ms", l.Now())
	}
	l.RunFor(5 * Millisecond)
	if l.Now() != 15*Millisecond {
		t.Fatalf("Now = %v, want 15ms", l.Now())
	}
}

func TestRunWhile(t *testing.T) {
	l := NewLoop()
	count := 0
	for i := 0; i < 10; i++ {
		l.Schedule(Time(i)*Millisecond, func(Time) { count++ })
	}
	l.RunWhile(func() bool { return count < 4 })
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
}

func TestFiredCounter(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 7; i++ {
		l.Schedule(Millisecond, func(Time) {})
	}
	l.Run()
	if l.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", l.Fired())
	}
}

func TestTimeConversions(t *testing.T) {
	tm := 1500 * Millisecond
	if tm.Milliseconds() != 1500 {
		t.Errorf("Milliseconds = %v, want 1500", tm.Milliseconds())
	}
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Errorf("Duration = %v, want 1.5s", tm.Duration())
	}
	if FromDuration(2*time.Second) != 2*Second {
		t.Errorf("FromDuration mismatch")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Time {
		l := NewLoop()
		r := NewRand(99)
		var stamps []Time
		var tick Handler
		n := 0
		tick = func(now Time) {
			stamps = append(stamps, now)
			n++
			if n < 50 {
				l.Schedule(r.Duration(10*Millisecond)+Microsecond, tick)
			}
		}
		l.Schedule(0, tick)
		l.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	f := func(seed uint64) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(4)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(5)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if variance < 0.95 || variance > 1.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(6)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.97 || mean > 1.03 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(8)
	base := 100 * Millisecond
	for i := 0; i < 10000; i++ {
		j := r.Jitter(base, 0.25)
		if j < 75*Millisecond || j > 125*Millisecond {
			t.Fatalf("jitter %v outside [75ms,125ms]", j)
		}
	}
}

func TestJitterZeroFrac(t *testing.T) {
	r := NewRand(9)
	if got := r.Jitter(50*Millisecond, 0); got != 50*Millisecond {
		t.Fatalf("Jitter(d, 0) = %v, want 50ms", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(10)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(11)
	a := parent.Fork()
	before := make([]uint64, 10)
	for i := range before {
		before[i] = a.Uint64()
	}
	// Re-create the same fork sequence; draws from a sibling fork must not
	// perturb the first stream.
	parent2 := NewRand(11)
	a2 := parent2.Fork()
	b2 := parent2.Fork()
	_ = b2.Uint64()
	for i := range before {
		if got := a2.Uint64(); got != before[i] {
			t.Fatalf("forked stream not reproducible at %d", i)
		}
	}
}

func TestDurationHelper(t *testing.T) {
	r := NewRand(12)
	if r.Duration(0) != 0 {
		t.Fatal("Duration(0) != 0")
	}
	for i := 0; i < 1000; i++ {
		d := r.Duration(Second)
		if d < 0 || d >= Second {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
}

func TestTimerFiresAtResetTime(t *testing.T) {
	l := NewLoop()
	var at Time
	tm := l.NewTimer(func(now Time) { at = now })
	tm.Reset(7 * Millisecond)
	l.Run()
	if at != 7*Millisecond {
		t.Fatalf("timer fired at %v, want 7ms", at)
	}
}

func TestScheduleArg(t *testing.T) {
	l := NewLoop()
	type box struct{ v int }
	var got []int
	h := func(_ Time, a any) { got = append(got, a.(*box).v) }
	l.ScheduleArg(2*Millisecond, h, &box{v: 2})
	l.ScheduleArg(Millisecond, h, &box{v: 1})
	l.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v, want [1 2]", got)
	}
}

func TestScheduleArgOrderedWithSchedule(t *testing.T) {
	// Arg events and closure events at the same timestamp interleave in
	// scheduling order.
	l := NewLoop()
	var order []int
	h := func(_ Time, a any) { order = append(order, a.(int)) }
	l.Schedule(Millisecond, func(Time) { order = append(order, 0) })
	l.ScheduleArg(Millisecond, h, 1)
	l.Schedule(Millisecond, func(Time) { order = append(order, 2) })
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want [0 1 2]", order)
		}
	}
}

func TestTimerResetAndStop(t *testing.T) {
	l := NewLoop()
	fired := 0
	tm := l.NewTimer(func(Time) { fired++ })
	tm.Reset(10 * Millisecond)
	tm.Reset(20 * Millisecond) // supersedes the first arming
	l.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (Reset must cancel the pending firing)", fired)
	}
	if l.Now() != 20*Millisecond {
		t.Fatalf("Now = %v, want 20ms", l.Now())
	}
	tm.Reset(5 * Millisecond)
	tm.Stop()
	l.Run()
	if fired != 1 {
		t.Fatalf("stopped timer fired (count %d)", fired)
	}
	tm.Stop() // idempotent on an unarmed timer
}

func TestTimerRearmFromHandler(t *testing.T) {
	l := NewLoop()
	count := 0
	var tm Timer
	tm = l.NewTimer(func(Time) {
		count++
		if count < 5 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond)
	end := l.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 5*Millisecond {
		t.Fatalf("end = %v, want 5ms", end)
	}
}

func TestTimerZeroAllocReset(t *testing.T) {
	l := NewLoop()
	tm := l.NewTimer(func(Time) {})
	tm.Reset(Millisecond)
	l.Run()
	allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(Millisecond)
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("Timer Reset/Stop allocates %v per run, want 0", allocs)
	}
}

func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	l := NewLoop()
	h := func(Time, any) {}
	// Warm the slab, then verify schedule+fire recycles slots without
	// allocating.
	for i := 0; i < 64; i++ {
		l.ScheduleArg(Millisecond, h, nil)
	}
	l.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			l.ScheduleArg(Millisecond, h, nil)
		}
		for l.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule allocates %v per run, want 0", allocs)
	}
}

func TestCancelAfterFireIsInert(t *testing.T) {
	// A timer whose slot has been recycled must not cancel the slot's new
	// occupant.
	l := NewLoop()
	tm := l.NewTimer(func(Time) {})
	tm.Reset(Millisecond)
	l.Run()
	fired := false
	l.Schedule(Millisecond, func(Time) { fired = true }) // likely reuses tm's slot
	tm.Stop()
	tm.Stop()
	l.Run()
	if !fired {
		t.Fatal("stale Stop killed an unrelated event")
	}
}

func TestRunWhileReentrancyGuard(t *testing.T) {
	l := NewLoop()
	defer func() {
		if recover() == nil {
			t.Fatal("reentrant RunWhile did not panic")
		}
	}()
	l.Schedule(Millisecond, func(Time) {
		l.RunWhile(func() bool { return true })
	})
	l.RunWhile(func() bool { return true })
}

func TestManyEventsStress(t *testing.T) {
	l := NewLoop()
	r := NewRand(13)
	const n = 20000
	var last Time
	fired := 0
	for i := 0; i < n; i++ {
		l.Schedule(r.Duration(Second), func(now Time) {
			if now < last {
				t.Errorf("time went backwards: %v after %v", now, last)
			}
			last = now
			fired++
		})
	}
	l.Run()
	if fired != n {
		t.Fatalf("fired %d, want %d", fired, n)
	}
}
