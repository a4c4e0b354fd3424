// Package sim provides a deterministic discrete-event simulator that the
// rest of the toolkit runs on top of.
//
// Mahimahi's shells run in real time on a Linux host; this reproduction runs
// the same queueing algorithms on a virtual clock so that experiments are
// deterministic, isolated from host load, and orders of magnitude faster
// than real time. Every packet release, TCP timer, and browser event is a
// callback scheduled on a Loop.
//
// Determinism guarantees: events fire in (time, sequence) order, where
// sequence is the order of scheduling (a Timer rearm takes a fresh
// sequence number, exactly like a cancel plus a new schedule). Two runs of
// the same workload with the same seeds produce identical traces.
//
// The loop is allocation-free in steady state: events live in a slab of
// value-typed slots recycled through a free list, so scheduling costs no
// heap allocation and firing order never depends on memory layout.
//
// Future events sit in a hierarchical timing wheel (Varghese & Lauck,
// SOSP '87) at nanosecond resolution: eleven levels of 64 FIFO slots, each
// level's slots 64 times wider than the one below, with one occupancy
// bitmap word per level. Inserting, and rearming a Timer, is O(1) whatever
// the number of pending events; an event moves down one or more levels as
// the clock approaches it and fires from a level-0 slot, which holds a
// single timestamp. The bitmaps let a sparse loop skip idle virtual time in
// a few word operations. Events due at the current instant bypass the
// wheel through a FIFO now-queue.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// Timing-wheel geometry: wheelLevels levels of wheelSlots slots cover the
// whole non-negative Time range (6 × 11 = 66 ≥ 63 bits).
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11
)

// eventSlot is the in-slab representation of a scheduled event. Slots are
// value-typed, recycled through the loop's free list, and addressed by
// index, so scheduling allocates nothing once the slab has grown to the
// workload's high-water mark. gen increments on every recycle, which lets
// an outstanding Timer detect that its slot has moved on.
type eventSlot struct {
	at  Time
	seq uint64
	fn  Handler
	afn ArgHandler
	arg any
	gen uint32
	// list is the wheel slot (level*wheelSlots + slot) holding the event;
	// -1 when the event is in the now-queue or the slot is free.
	list int16
	// canceled marks a stopped Timer firing left in the now-queue, which
	// cannot unlink in place; wheel-resident events are unlinked instead.
	canceled bool
	// next and prev link the slot into its wheel slot's FIFO list.
	next, prev int32
}

// Timer is a rearmable event bound to one handler, and the loop's only
// cancelable handle. It captures its handler once at creation and then
// rearms allocation-free — the pattern TCP retransmission timers need,
// where the timer is reset on every ACK. The zero Timer is not usable;
// create one with Loop.NewTimer.
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

// pending returns the timer's slot when it holds a live, uncanceled
// firing.
func (t *Timer) pending() *eventSlot {
	if !t.armed {
		return nil
	}
	s := &t.loop.slots[t.slot]
	if s.gen != t.gen || s.canceled {
		return nil
	}
	return s
}

// Reset (re)arms the timer to fire after delay, canceling any pending
// firing. A negative delay is clamped to zero. Reset is O(1) and performs
// no heap allocation: a firing pending in the wheel is unlinked and
// re-entered with the new time and a fresh sequence number, so ordering
// matches a cancel-plus-reschedule exactly; otherwise the timer draws a
// recycled slot with its bound handler.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		delay = 0
	}
	l := t.loop
	if s := t.pending(); s != nil && s.list >= 0 {
		l.counters.Scheduled++ // a rearm is a cancel-plus-reschedule
		l.wheelUnlink(t.slot)
		s.at = l.now + delay
		s.seq = l.nextSeq
		l.nextSeq++
		l.enqueue(t.slot)
		return
	}
	t.Stop()
	t.slot, t.gen = l.scheduleSlot(l.now+delay, t.fn, nil, nil)
	t.armed = true
}

// Stop cancels the pending firing, if any. Stopping an unarmed or
// already-fired timer is a no-op.
func (t *Timer) Stop() {
	s := t.pending()
	t.armed = false
	if s == nil {
		return
	}
	if s.list >= 0 {
		t.loop.wheelUnlink(t.slot)
		t.loop.freeSlot(t.slot)
		return
	}
	s.canceled = true // in the now-queue: discarded when it reaches the head
}

// Loop is the discrete-event loop. The zero value is not usable; create one
// with NewLoop.
type Loop struct {
	now   Time
	slots []eventSlot
	free  []int32 // recycled slot indices
	// Timing wheel. Level k slot d holds, in FIFO (= seq) order, the events
	// whose time agrees with cur on every bit above level k's six and whose
	// level-k digit is d, with k the highest level at which the two differ;
	// level 0 slots therefore hold exactly one timestamp each. cur never
	// exceeds an event in the wheel, and it equals now whenever the wheel
	// holds an event due at now. occ has bit d of word k set iff that slot
	// is non-empty.
	cur        Time
	occ        [wheelLevels]uint64
	head, tail [wheelLevels * wheelSlots]int32
	wheelCount int
	// nowq is the fast path for events scheduled at exactly the current
	// time — the zero-delay deliveries that dominate packet-forwarding
	// workloads. Entries are in seq order by construction (appended in
	// scheduling order, and seq increases), so the queue is a FIFO ring
	// consumed from nowHead; it is provably empty whenever the clock
	// advances. Events in the wheel due at the same instant were scheduled
	// before the clock got there, so they fire first; next checks that by
	// seq, keeping firing order exactly (at, seq).
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
	l := &Loop{}
	l.clearWheel()
	return l
}

func (l *Loop) clearWheel() {
	for i := range l.head {
		l.head[i], l.tail[i] = -1, -1
	}
	l.occ = [wheelLevels]uint64{}
	l.cur = 0
	l.wheelCount = 0
}

// Reset returns the loop to its initial state — virtual time zero, empty
// queue — while keeping every allocated capacity (slot slab, free list,
// now-queue), so a driver running many sequential simulations can reuse
// one warmed loop instead of regrowing these structures per run (see
// engine.Shard.Loop). Any events still pending are discarded. Timers
// issued before the reset must not be used afterwards: slot generations
// advance, which makes stale handles inert.
func (l *Loop) Reset() {
	if l.running {
		panic("sim: Reset while running")
	}
	for i := range l.slots {
		s := &l.slots[i]
		s.fn, s.afn, s.arg = nil, nil, nil
		s.canceled = false
		s.list = -1
		s.gen++
	}
	l.free = l.free[:0]
	for i := len(l.slots) - 1; i >= 0; i-- {
		l.free = append(l.free, int32(i))
	}
	l.nowq = l.nowq[:0]
	l.nowHead = 0
	l.clearWheel()
	l.now = 0
	l.nextSeq = 0
	// counters and fired accumulate across resets; the stats sink flushes
	// deltas, so nothing is double-counted.
}

// Now reports the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Pending reports the number of events currently queued (including stopped
// timer firings still waiting in the now-queue).
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
func (l *Loop) Schedule(delay Time, fn Handler) {
	if delay < 0 {
		delay = 0
	}
	l.ScheduleAt(l.now+delay, fn)
}

// ScheduleAt queues fn to run at the absolute virtual time at. Times in the
// past are clamped to now.
func (l *Loop) ScheduleAt(at Time, fn Handler) {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	l.scheduleSlot(at, fn, nil, nil)
}

// ScheduleArg queues fn to run after delay, passing arg when it fires. It
// is the allocation-free alternative to Schedule for hot paths: the handler
// is bound once at setup and the per-event state travels in arg (interface
// conversion of a pointer allocates nothing).
func (l *Loop) ScheduleArg(delay Time, fn ArgHandler, arg any) {
	if fn == nil {
		panic("sim: Schedule with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	l.scheduleSlot(l.now+delay, nil, fn, arg)
}

// scheduleSlot places a callback in the slab and scheduler, returning its
// slot index and generation. This is the single scheduling primitive every
// public method funnels through; it performs no allocation once the slab
// has reached the workload's high-water mark.
func (l *Loop) scheduleSlot(at Time, fn Handler, afn ArgHandler, arg any) (int32, uint32) {
	if at < l.now {
		at = l.now
	}
	var idx int32
	if n := len(l.free); n > 0 {
		idx = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		l.slots = append(l.slots, eventSlot{list: -1})
		idx = int32(len(l.slots) - 1)
	}
	s := &l.slots[idx]
	s.at = at
	s.seq = l.nextSeq
	s.fn = fn
	s.afn = afn
	s.arg = arg
	l.nextSeq++
	l.counters.Scheduled++
	l.enqueue(idx)
	if p := l.Pending(); p > l.counters.MaxPending {
		l.counters.MaxPending = p
	}
	return idx, s.gen
}

// enqueue files a freshly stamped slot: the now-queue when it is due at the
// current instant, the wheel otherwise.
func (l *Loop) enqueue(idx int32) {
	s := &l.slots[idx]
	if s.at == l.now {
		s.list = -1
		l.nowq = append(l.nowq, idx)
		l.counters.NowFast++
		return
	}
	li := l.wheelList(s.at)
	if t := l.tail[li]; t >= 0 && l.slots[t].at == s.at {
		l.counters.BucketHit++
	} else {
		l.counters.BucketNew++
	}
	l.wheelLink(idx, li)
	l.wheelCount++
}

// wheelList returns the wheel slot (level*wheelSlots + digit) an event at
// time at belongs in relative to cur: the highest 6-bit digit where the
// two differ selects the level, at's digit there the slot.
func (l *Loop) wheelList(at Time) int {
	x := uint64(at ^ l.cur)
	if x == 0 {
		return int(uint64(at) & wheelMask)
	}
	k := (63 - bits.LeadingZeros64(x)) / wheelBits
	return k*wheelSlots + int(uint64(at)>>(k*wheelBits)&wheelMask)
}

// wheelLink appends a slot to the tail of wheel slot li's FIFO list.
func (l *Loop) wheelLink(idx int32, li int) {
	s := &l.slots[idx]
	s.list = int16(li)
	s.next = -1
	s.prev = l.tail[li]
	if s.prev >= 0 {
		l.slots[s.prev].next = idx
	} else {
		l.head[li] = idx
		l.occ[li/wheelSlots] |= 1 << (li % wheelSlots)
	}
	l.tail[li] = idx
}

// wheelUnlink removes a slot from its wheel list without firing it.
func (l *Loop) wheelUnlink(idx int32) {
	s := &l.slots[idx]
	li := int(s.list)
	if s.prev >= 0 {
		l.slots[s.prev].next = s.next
	} else {
		l.head[li] = s.next
	}
	if s.next >= 0 {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail[li] = s.prev
	}
	if l.head[li] < 0 {
		l.occ[li/wheelSlots] &^= 1 << (li % wheelSlots)
	}
	s.list = -1
	l.wheelCount--
}

// wheelSeek returns the wheel slot whose head is the wheel's earliest
// event, or -1 when the wheel holds nothing at or before limit. That is
// the first occupied level-0 slot at or after cur if there is one;
// otherwise the first occupied slot above cur on the lowest occupied level
// holds the earliest events, and unless it holds just one (which is then
// the earliest, and fires without refiling) it is cascaded and the search
// repeats. cur only moves to the start of a slot that holds an event at
// or before limit, so it never passes an event, and never passes the
// clock's next value.
func (l *Loop) wheelSeek(limit Time) int {
	for l.wheelCount > 0 {
		cur := uint64(l.cur)
		if m := l.occ[0] >> (cur & wheelMask); m != 0 {
			d := cur&wheelMask + uint64(bits.TrailingZeros64(m))
			if Time(cur&^wheelMask|d) > limit {
				return -1
			}
			return int(d)
		}
		for k := 1; ; k++ {
			if k == wheelLevels {
				panic("sim: timing wheel lost its events")
			}
			shift := uint(k * wheelBits)
			d := cur >> shift & wheelMask
			m := l.occ[k] >> d >> 1
			if m == 0 {
				continue
			}
			d += 1 + uint64(bits.TrailingZeros64(m))
			li := k*wheelSlots + int(d)
			if h := l.head[li]; h == l.tail[li] {
				if l.slots[h].at > limit {
					return -1
				}
				return li
			}
			start := cur>>(shift+wheelBits)<<(shift+wheelBits) | d<<shift
			if Time(start) > limit {
				return -1
			}
			l.cascade(li, Time(start))
			break
		}
	}
	return -1
}

// cascade empties wheel slot li, advances cur to the slot's start time and
// refiles its events one level down or more. Walking the list in order
// keeps every destination list in seq order: a lower slot in the new range
// can only fill after cur has entered that range.
func (l *Loop) cascade(li int, start Time) {
	idx := l.head[li]
	l.head[li], l.tail[li] = -1, -1
	l.occ[li/wheelSlots] &^= 1 << (li % wheelSlots)
	l.cur = start
	for idx >= 0 {
		next := l.slots[idx].next
		l.wheelLink(idx, l.wheelList(l.slots[idx].at))
		idx = next
	}
}

// wheelPop removes the head of wheel slot li, the wheel's earliest event,
// moving cur to its time. Every other event still satisfies the filing
// rule against the new cur: it agrees with it above its own level, where
// cur's digits did not change.
func (l *Loop) wheelPop(li int) int32 {
	idx := l.head[li]
	l.cur = l.slots[idx].at
	l.wheelUnlink(idx)
	return idx
}

// next removes and returns the slot of the earliest event at or before
// limit, or -1 when there is none. Stopped timer firings met at the head of
// the now-queue are recycled on the way.
func (l *Loop) next(limit Time) int32 {
	for l.nowHead < len(l.nowq) {
		idx := l.nowq[l.nowHead]
		// A wheel event due now can only sit in level-0 slot cur.
		if l.cur == l.now {
			if d := int(uint64(l.cur) & wheelMask); l.occ[0]&(1<<d) != 0 && l.slots[l.head[d]].seq < l.slots[idx].seq {
				return l.wheelPop(d)
			}
		}
		l.nowHead++
		if l.nowHead == len(l.nowq) {
			l.nowq = l.nowq[:0]
			l.nowHead = 0
		}
		if !l.slots[idx].canceled {
			return idx
		}
		l.freeSlot(idx)
	}
	if li := l.wheelSeek(limit); li >= 0 {
		return l.wheelPop(li)
	}
	return -1
}

// freeSlot recycles a slot: handler references are dropped so the GC can
// reclaim them, and the generation advances so stale handles become inert.
func (l *Loop) freeSlot(idx int32) {
	s := &l.slots[idx]
	s.fn = nil
	s.afn = nil
	s.arg = nil
	s.canceled = false
	s.list = -1
	s.gen++
	l.free = append(l.free, idx)
}

// fire runs a slot removed by next, advancing the clock to its timestamp.
func (l *Loop) fire(idx int32) {
	s := &l.slots[idx]
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
}

// Step fires the single earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (l *Loop) Step() bool {
	idx := l.next(MaxTime)
	if idx < 0 {
		return false
	}
	l.fire(idx)
	return true
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
	for idx := l.next(deadline); idx >= 0; idx = l.next(deadline) {
		l.fire(idx)
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
