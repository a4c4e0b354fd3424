// Package sim provides a deterministic discrete-event simulator that the
// rest of the toolkit runs on top of.
//
// Mahimahi's shells run in real time on a Linux host; this reproduction runs
// the same queueing algorithms on a virtual clock so that experiments are
// deterministic, isolated from host load, and orders of magnitude faster
// than real time. Every packet release, TCP timer, and browser event is an
// Event scheduled on a Loop.
//
// Determinism guarantees: events fire in (time, priority, sequence) order,
// where sequence is the order of scheduling. Two runs of the same workload
// with the same seeds produce identical traces.
//
// The loop is allocation-free in steady state: events live in a slab of
// value-typed slots recycled through a free list, so scheduling costs no
// heap allocation and firing order never depends on memory layout.
//
// Future events are ordered by a calendar queue of same-deadline runs under
// a small binary heap keyed by each run's earliest event. It exploits the
// workload's heavily clustered deadlines (fixed box delays,
// millisecond-quantized trace opportunities): consecutive schedules onto
// one deadline — a burst filling a packet train, per-ACK timer rearms onto
// one RTO — append to a cached run in O(1) with no heap work, so heap
// operations are paid per run rather than per event.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds since the start of
// the simulation. It intentionally mirrors time.Duration arithmetic.
type Time int64

// Common virtual-time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a virtual timestamp to a time.Duration from t=0.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Milliseconds reports the timestamp in (possibly fractional) milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports the timestamp in (possibly fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the virtual time as a duration from simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a wall-clock duration to a virtual duration.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// Handler is a callback fired when an event's time arrives.
type Handler func(now Time)

// ArgHandler is a callback fired with an opaque argument supplied at
// scheduling time. ScheduleArg plus a handler bound once at setup replaces
// the per-event closure (which allocates) on hot paths like per-packet
// delivery.
type ArgHandler func(now Time, arg any)

// eventSlot is the in-slab representation of a scheduled event. Slots are
// value-typed, recycled through the loop's free list, and addressed by
// index, so scheduling allocates nothing once the slab has grown to the
// workload's high-water mark. gen increments on every recycle, which lets
// outstanding Event/Timer handles detect that their slot has moved on.
type eventSlot struct {
	at       Time
	seq      uint64
	fn       Handler
	afn      ArgHandler
	arg      any
	priority int32
	gen      uint32
	// bucket is the index of the same-deadline run holding the slot; -1
	// when the slot is in the now-queue or free.
	bucket int32
	// next and prev link the slot into its bucket's (priority, seq)-ordered
	// list.
	next, prev int32
	canceled   bool
}

// Event is a cancelable handle to a scheduled callback, returned by the
// scheduling methods (e.g. so a test can cancel a pending event). It is a
// value: copy it freely. The zero Event is inert.
type Event struct {
	loop     *Loop
	slot     int32
	gen      uint32
	at       Time
	canceled bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Canceled reports whether Cancel has been called on this handle.
func (e *Event) Canceled() bool { return e.canceled }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.loop == nil {
		return
	}
	s := &e.loop.slots[e.slot]
	if s.gen == e.gen {
		s.canceled = true
	}
}

// Timer is a rearmable event bound to one handler. Unlike Schedule, whose
// per-call handler is typically a freshly allocated closure, a Timer
// captures its handler once at creation and then rearms allocation-free —
// the pattern TCP retransmission timers need, where the timer is reset on
// every ACK. The zero Timer is not usable; create one with Loop.NewTimer.
type Timer struct {
	loop  *Loop
	fn    Handler
	slot  int32
	gen   uint32
	armed bool
}

// NewTimer returns an unarmed timer that will run fn each time it fires.
func (l *Loop) NewTimer(fn Handler) Timer {
	if fn == nil {
		panic("sim: NewTimer with nil handler")
	}
	return Timer{loop: l, fn: fn, slot: -1}
}

// Reset (re)arms the timer to fire after delay, canceling any pending
// firing. A negative delay is clamped to zero. Reset performs no heap
// allocation: a still-pending firing is rescheduled in place — the slot
// leaves its old run and re-enters the scheduler with the new time and a
// fresh sequence number, so ordering matches a cancel-plus-reschedule
// exactly — and otherwise the timer draws a recycled slot with its bound
// handler.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	l := t.loop
	if t.armed {
		s := &l.slots[t.slot]
		if s.gen == t.gen && !s.canceled && s.bucket >= 0 {
			l.counters.Scheduled++ // a rearm is a cancel-plus-reschedule
			// Unlink from the old timestamp's bucket and re-enter the
			// scheduler exactly as a fresh schedule would.
			l.wheelUnlink(t.slot)
			s.at = l.now + delay
			s.seq = l.nextSeq
			l.nextSeq++
			if s.at == l.now && s.priority == 0 {
				l.nowq = append(l.nowq, t.slot)
				l.counters.NowFast++
			} else {
				l.wheelInsert(t.slot)
			}
			return
		}
	}
	t.Stop()
	t.slot, t.gen = l.scheduleSlot(l.now+delay, 0, t.fn, nil, nil)
	t.armed = true
}

// Stop cancels the pending firing, if any. Stopping an unarmed or
// already-fired timer is a no-op.
func (t *Timer) Stop() {
	if !t.armed {
		return
	}
	t.armed = false
	s := &t.loop.slots[t.slot]
	if s.gen == t.gen {
		s.canceled = true
	}
}

// bucket is one same-timestamp FIFO run of the scheduler. Its slot
// list is ordered by (priority, seq); with the default priority that is
// plain FIFO append order. Buckets live in a slab recycled through a free
// list and are indexed into a small binary heap ordered by
// (time, head priority, head seq) — i.e. by each run's earliest event —
// so a whole burst costs one heap node instead of one per event.
type bucket struct {
	at         Time
	headSeq    uint64 // head slot's seq, inlined so heap compares stay in the bucket slab
	head, tail int32  // slot-list endpoints; head == -1 only transiently
	heapIdx    int32  // position in bheap; -1 when free
	headPrio   int32  // head slot's priority, inlined like headSeq
}

// syncHeadKey refreshes the bucket's inlined copy of its head's sort key.
func (l *Loop) syncHeadKey(b *bucket) {
	s := &l.slots[b.head]
	b.headPrio = s.priority
	b.headSeq = s.seq
}

// Loop is the discrete-event loop. The zero value is not usable; create one
// with NewLoop.
type Loop struct {
	now   Time
	slots []eventSlot
	free  []int32 // recycled slot indices
	// Scheduler state: same-deadline runs share one bucket, ordered by a
	// small heap over the runs' earliest events. wheelCount tracks slots
	// currently held in buckets.
	buckets []bucket
	bfree   []int32 // recycled bucket indices
	bheap   []int32 // bucket indices ordered by (at, head priority, head seq)
	// lastBucket makes run formation O(1): the dominant pattern is a burst
	// of schedules onto one deadline (packets filling a train, per-ACK
	// timer rearms onto one RTO), and each joins the cached bucket without
	// touching the heap. -1 when invalid.
	lastBucket int32
	wheelCount int
	// nowq is the fast path for events scheduled at exactly the current
	// time with default priority — the zero-delay deliveries that dominate
	// packet-forwarding workloads. Entries are in seq order by
	// construction (appended in scheduling order, and seq increases), so
	// the queue is a FIFO ring consumed from nowHead; it is provably empty
	// whenever the clock advances, because its entries sort before any
	// later-timed bucketed event. Step merge-compares the ring head with the
	// scheduler's minimum, so firing order remains exactly
	// (at, priority, seq).
	nowq     []int32
	nowHead  int
	nextSeq  uint64
	running  bool
	fired    uint64
	counters SchedCounters
	flushed  SchedCounters // portion already pushed to the global stats sink
}

// NewLoop returns an empty event loop positioned at virtual time zero.
func NewLoop() *Loop {
	return &Loop{lastBucket: -1}
}

// Reset returns the loop to its initial state — virtual time zero, empty
// queue — while keeping every allocated capacity (slot slab, free lists,
// buckets, run heap, now-queue), so a driver running many sequential
// simulations can reuse one warmed loop instead of regrowing these
// structures per run (see engine.Shard.Loop). Any events still pending
// are discarded. Event/Timer handles issued before the reset must not be
// used afterwards: slot generations advance, which makes stale handles
// inert.
func (l *Loop) Reset() {
	if l.running {
		panic("sim: Reset while running")
	}
	for i := range l.slots {
		s := &l.slots[i]
		s.fn, s.afn, s.arg = nil, nil, nil
		s.canceled = false
		s.bucket = -1
		s.gen++
	}
	l.free = l.free[:0]
	for i := len(l.slots) - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
	l.nowq = l.nowq[:0]
	l.nowHead = 0
	l.buckets = l.buckets[:0]
	l.bfree = l.bfree[:0]
	l.bheap = l.bheap[:0]
	l.lastBucket = -1
	l.wheelCount = 0
	l.now = 0
	l.nextSeq = 0
	// counters and fired accumulate across resets; the stats sink flushes
	// deltas, so nothing is double-counted.
}

// Now reports the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Pending reports the number of events currently queued (including canceled
// events that have not yet been discarded).
func (l *Loop) Pending() int { return l.wheelCount + len(l.nowq) - l.nowHead }

// SeqMark returns an opaque marker that changes whenever a new event is
// scheduled. Batching layers (netem's packet trains) use it to detect
// whether anything else entered the event queue between two scheduling
// decisions — the condition under which same-instant deliveries are
// provably adjacent in firing order and may share one event.
func (l *Loop) SeqMark() uint64 { return l.nextSeq }

// Fired reports the total number of events that have executed.
func (l *Loop) Fired() uint64 { return l.fired }

// Schedule queues fn to run after delay. A negative delay is treated as
// zero: the event runs at the current time, after events already queued for
// that time.
func (l *Loop) Schedule(delay Time, fn Handler) Event {
	if delay < 0 {
		delay = 0
	}
	return l.ScheduleAt(l.now+delay, fn)
}

// ScheduleAt queues fn to run at the absolute virtual time at. Times in the
// past are clamped to now.
func (l *Loop) ScheduleAt(at Time, fn Handler) Event {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	return l.newEvent(at, 0, fn, nil, nil)
}

// SchedulePriority queues fn to run after delay with an explicit priority.
// Among events at the same time, lower priorities fire first; equal
// priorities fire in scheduling order.
func (l *Loop) SchedulePriority(delay Time, priority int, fn Handler) Event {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	return l.newEvent(l.now+delay, int32(priority), fn, nil, nil)
}

// ScheduleArg queues fn to run after delay, passing arg when it fires. It
// is the allocation-free alternative to Schedule for hot paths: the handler
// is bound once at setup and the per-event state travels in arg (interface
// conversion of a pointer allocates nothing).
func (l *Loop) ScheduleArg(delay Time, fn ArgHandler, arg any) Event {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	return l.newEvent(l.now+delay, 0, nil, fn, arg)
}

func (l *Loop) newEvent(at Time, priority int32, fn Handler, afn ArgHandler, arg any) Event {
	slot, gen := l.scheduleSlot(at, priority, fn, afn, arg)
	return Event{loop: l, slot: slot, gen: gen, at: l.slots[slot].at}
}

// scheduleSlot places a callback in the slab and scheduler, returning its
// slot index and generation. This is the single scheduling primitive every
// public method funnels through; it performs no allocation once the slab
// and buckets have reached the workload's high-water mark.
func (l *Loop) scheduleSlot(at Time, priority int32, fn Handler, afn ArgHandler, arg any) (int32, uint32) {
	if at < l.now {
		at = l.now
	}
	var idx int32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.slots = append(l.slots, eventSlot{})
		idx = int32(len(l.slots) - 1)
	}
	s := &l.slots[idx]
	s.at = at
	s.priority = priority
	s.seq = l.nextSeq
	s.fn = fn
	s.afn = afn
	s.arg = arg
	s.canceled = false
	l.nextSeq++
	l.counters.Scheduled++
	if at == l.now && priority == 0 {
		s.bucket = -1
		l.nowq = append(l.nowq, idx)
		l.counters.NowFast++
	} else {
		l.wheelInsert(idx)
	}
	if p := l.Pending(); p > l.counters.MaxPending {
		l.counters.MaxPending = p
	}
	return idx, s.gen
}

// wheelInsert places a slot in a same-deadline bucket. The cached bucket
// catches the dominant pattern — consecutive schedules onto one deadline —
// in O(1) with no heap work (a tail append never changes the bucket's
// earliest event); everything else opens a fresh bucket. Two buckets may
// share a timestamp (a run interrupted by other deadlines, then resumed):
// their seq ranges are disjoint and the heap orders them by head event, so
// firing order stays exactly (at, priority, seq).
//
// Within a bucket slots are kept in (priority, seq) order; the inserting
// slot always has the highest seq, so it appends at the tail unless a
// higher-priority-value (later-firing) entry sits there — the rare
// SchedulePriority case, handled by a scan.
func (l *Loop) wheelInsert(idx int32) {
	s := &l.slots[idx]
	s.next, s.prev = -1, -1
	bi := l.lastBucket
	if bi < 0 || l.buckets[bi].at != s.at {
		l.counters.BucketNew++
		if n := len(l.bfree); n > 0 {
			bi = l.bfree[n-1]
			l.bfree = l.bfree[:n-1]
		} else {
			l.buckets = append(l.buckets, bucket{})
			bi = int32(len(l.buckets) - 1)
		}
		b := &l.buckets[bi]
		b.at = s.at
		b.head, b.tail = idx, idx
		b.headPrio = s.priority
		b.headSeq = s.seq
		s.bucket = bi
		l.lastBucket = bi
		l.bheapPush(bi)
		l.wheelCount++
		if n := len(l.bheap); n > l.counters.MaxBuckets {
			l.counters.MaxBuckets = n
		}
		return
	}
	l.counters.BucketHit++
	b := &l.buckets[bi]
	s.bucket = bi
	if l.slots[b.tail].priority <= s.priority {
		// FIFO fast path: new event fires after everything queued for this
		// deadline; the bucket's heap position is untouched.
		s.prev = b.tail
		l.slots[b.tail].next = idx
		b.tail = idx
	} else {
		// A lower-priority value fires earlier: walk to the first entry
		// that must fire after the new one and insert before it.
		cur := b.head
		for cur != -1 && l.slots[cur].priority <= s.priority {
			cur = l.slots[cur].next
		}
		s.next = cur
		s.prev = l.slots[cur].prev
		l.slots[cur].prev = idx
		if s.prev != -1 {
			l.slots[s.prev].next = idx
		} else {
			// New bucket minimum: restore heap order.
			b.head = idx
			b.headPrio = s.priority
			b.headSeq = s.seq
			l.bheapUp(int(b.heapIdx))
		}
	}
	l.wheelCount++
}

// wheelPop removes and returns the wheel's earliest slot. The caller must
// ensure the wheel is non-empty.
func (l *Loop) wheelPop() int32 {
	bi := l.bheap[0]
	b := &l.buckets[bi]
	idx := b.head
	s := &l.slots[idx]
	b.head = s.next
	if b.head != -1 {
		l.slots[b.head].prev = -1
		l.syncHeadKey(b)
		// The run's earliest event grew; re-sink among equal-time runs.
		l.bheapDown(0)
	} else {
		l.freeBucket(bi, 0)
	}
	s.bucket = -1
	l.wheelCount--
	return idx
}

// wheelUnlink removes a slot from its bucket without firing it (Timer.Reset
// repositioning). The caller must know the slot is bucket-resident
// (bucket >= 0).
func (l *Loop) wheelUnlink(idx int32) {
	s := &l.slots[idx]
	bi := s.bucket
	b := &l.buckets[bi]
	if s.prev != -1 {
		l.slots[s.prev].next = s.next
	} else {
		b.head = s.next
	}
	if s.next != -1 {
		l.slots[s.next].prev = s.prev
	} else {
		b.tail = s.prev
	}
	s.bucket = -1
	l.wheelCount--
	if b.head == -1 {
		l.freeBucket(bi, int(b.heapIdx))
	} else if s.prev == -1 {
		// The head changed; the run sinks (its key can only grow).
		l.syncHeadKey(b)
		l.bheapDown(int(b.heapIdx))
	}
}

// freeBucket detaches an emptied bucket from the run heap (at heap
// position hi) and recycles it.
func (l *Loop) freeBucket(bi int32, hi int) {
	if l.lastBucket == bi {
		l.lastBucket = -1
	}
	l.buckets[bi].heapIdx = -1
	n := len(l.bheap) - 1
	l.bheap[hi] = l.bheap[n]
	l.bheap = l.bheap[:n]
	if hi < n {
		l.buckets[l.bheap[hi]].heapIdx = int32(hi)
		l.bheapDown(hi)
		l.bheapUp(hi)
	}
	l.bfree = append(l.bfree, bi)
}

// bucketLess orders buckets by their earliest event: (at, priority, seq)
// of the head slot, read from the inlined key copy. Equal-time buckets
// hold disjoint seq ranges, so the comparison reproduces the global firing
// order exactly.
func (l *Loop) bucketLess(a, b int32) bool {
	ba, bb := &l.buckets[a], &l.buckets[b]
	if ba.at != bb.at {
		return ba.at < bb.at
	}
	if ba.headPrio != bb.headPrio {
		return ba.headPrio < bb.headPrio
	}
	return ba.headSeq < bb.headSeq
}

// bheapPush inserts a bucket index into the run heap.
func (l *Loop) bheapPush(bi int32) {
	l.buckets[bi].heapIdx = int32(len(l.bheap))
	l.bheap = append(l.bheap, bi)
	l.bheapUp(len(l.bheap) - 1)
}

func (l *Loop) bheapUp(i int) {
	h := l.bheap
	for i > 0 {
		parent := (i - 1) / 2
		if !l.bucketLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		l.buckets[h[i]].heapIdx = int32(i)
		i = parent
	}
	l.buckets[h[i]].heapIdx = int32(i)
}

func (l *Loop) bheapDown(i int) {
	h := l.bheap
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && l.bucketLess(h[right], h[left]) {
			child = right
		}
		if !l.bucketLess(h[child], h[i]) {
			break
		}
		h[i], h[child] = h[child], h[i]
		l.buckets[h[i]].heapIdx = int32(i)
		i = child
	}
	l.buckets[h[i]].heapIdx = int32(i)
}

// less orders slots by (at, priority, seq) — the documented firing order.
func (l *Loop) less(a, b int32) bool {
	sa, sb := &l.slots[a], &l.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	if sa.priority != sb.priority {
		return sa.priority < sb.priority
	}
	return sa.seq < sb.seq
}

// popNow consumes the now-queue's head.
func (l *Loop) popNow() int32 {
	idx := l.nowq[l.nowHead]
	l.nowHead++
	if l.nowHead == len(l.nowq) {
		l.nowq = l.nowq[:0]
		l.nowHead = 0
	}
	return idx
}

// wheelMin returns the slot index of the scheduler's earliest event. The
// caller must ensure wheelCount > 0.
func (l *Loop) wheelMin() int32 { return l.buckets[l.bheap[0]].head }

// peekNext returns the slot index of the globally earliest event without
// removing it; ok is false when no events remain.
func (l *Loop) peekNext() (int32, bool) {
	hasNow := l.nowHead < len(l.nowq)
	hasFuture := l.wheelCount > 0
	switch {
	case !hasNow && !hasFuture:
		return 0, false
	case hasNow && !hasFuture:
		return l.nowq[l.nowHead], true
	case hasFuture && !hasNow:
		return l.wheelMin(), true
	}
	if min := l.wheelMin(); l.less(min, l.nowq[l.nowHead]) {
		return min, true
	}
	return l.nowq[l.nowHead], true
}

// popNext removes and returns the globally earliest event's slot index.
func (l *Loop) popNext() (int32, bool) {
	hasNow := l.nowHead < len(l.nowq)
	hasFuture := l.wheelCount > 0
	switch {
	case !hasNow && !hasFuture:
		return 0, false
	case hasNow && !hasFuture:
		return l.popNow(), true
	case hasFuture && !hasNow:
		return l.wheelPop(), true
	}
	if l.less(l.wheelMin(), l.nowq[l.nowHead]) {
		return l.wheelPop(), true
	}
	return l.popNow(), true
}

// freeSlot recycles a slot: handler references are dropped so the GC can
// reclaim them, and the generation advances so stale handles become inert.
func (l *Loop) freeSlot(idx int32) {
	s := &l.slots[idx]
	s.fn = nil
	s.afn = nil
	s.arg = nil
	s.canceled = false
	s.bucket = -1
	s.gen++
	l.free = append(l.free, idx)
}

// Step fires the single earliest pending non-canceled event, advancing the
// clock to its timestamp. It reports false when no events remain.
func (l *Loop) Step() bool {
	for {
		idx, ok := l.popNext()
		if !ok {
			return false
		}
		s := &l.slots[idx]
		if s.canceled {
			l.freeSlot(idx)
			continue
		}
		if s.at < l.now {
			panic(fmt.Sprintf("sim: event scheduled at %v fired at %v (clock went backwards)", s.at, l.now))
		}
		l.now = s.at
		l.fired++
		// Copy the callback out and recycle the slot before invoking, so
		// handlers that schedule new events can reuse it immediately.
		fn, afn, arg := s.fn, s.afn, s.arg
		l.freeSlot(idx)
		if afn != nil {
			afn(l.now, arg)
		} else {
			fn(l.now)
		}
		return true
	}
}

// Run fires events until the queue is empty, then returns the final virtual
// time.
func (l *Loop) Run() Time {
	if l.running {
		panic("sim: Run called reentrantly")
	}
	l.running = true
	defer func() { l.running = false }()
	for l.Step() {
	}
	l.flushStats()
	return l.now
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to the deadline. Events scheduled past the deadline remain queued.
func (l *Loop) RunUntil(deadline Time) {
	if l.running {
		panic("sim: RunUntil called reentrantly")
	}
	l.running = true
	defer func() { l.running = false }()
	for {
		idx, ok := l.peekNext()
		if !ok {
			break
		}
		s := &l.slots[idx]
		if s.canceled {
			l.popNext()
			l.freeSlot(idx)
			continue
		}
		if s.at > deadline {
			break
		}
		l.Step()
	}
	if l.now < deadline {
		l.now = deadline
	}
	l.flushStats()
}

// RunFor runs the loop for d virtual time from the current clock.
func (l *Loop) RunFor(d Time) { l.RunUntil(l.now + d) }

// RunWhile fires events until cond returns false or the queue drains. cond
// is evaluated before each event.
func (l *Loop) RunWhile(cond func() bool) {
	if l.running {
		panic("sim: RunWhile called reentrantly")
	}
	l.running = true
	defer func() { l.running = false }()
	for cond() && l.Step() {
	}
	l.flushStats()
}

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)
