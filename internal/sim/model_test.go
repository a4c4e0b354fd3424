package sim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
)

// refEntry is one pending event in the reference queue.
type refEntry struct {
	at  Time
	seq uint64
	id  int
}

func refLess(a, b refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// refQueue is the reference scheduler: a slice kept sorted by (at, seq),
// the documented firing order, with no wheel and no now-queue. seq counts
// scheduling operations, so a timer rearm takes a fresh position exactly
// like a cancel-plus-reschedule.
type refQueue struct {
	entries []refEntry
	seq     uint64
}

func (q *refQueue) push(at Time, id int) {
	e := refEntry{at: at, seq: q.seq, id: id}
	q.seq++
	i := sort.Search(len(q.entries), func(i int) bool { return refLess(e, q.entries[i]) })
	q.entries = append(q.entries, refEntry{})
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
}

// remove drops the entry with the given id; absent ids (already fired or
// stopped) are a no-op, like stopping a stale timer.
func (q *refQueue) remove(id int) {
	for i, e := range q.entries {
		if e.id == id {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			return
		}
	}
}

func (q *refQueue) pop() (refEntry, bool) {
	if len(q.entries) == 0 {
		return refEntry{}, false
	}
	e := q.entries[0]
	q.entries = q.entries[1:]
	return e, true
}

// firingModel drives a Loop and a refQueue with the same operation stream
// and checks every fired event against the reference. draw supplies the
// stream: a seeded generator in TestFiringOrderMatchesReference, fuzzer
// bytes in FuzzLoopMatchesReference.
type firingModel struct {
	t      *testing.T
	label  string
	loop   *Loop
	ref    refQueue
	draw   func(n int) int
	budget int // scheduling operations left; the queue drains once spent
	nextID int
	fired  int
	// timers are rearmed and stopped at random; timerID is the id of each
	// timer's pending firing, -1 when none. A timer's handle stays valid
	// after it fires, so Stop and Reset also exercise stale handles.
	timers  []Timer
	timerID []int
	argFn   ArgHandler
}

func newFiringModel(t *testing.T, label string, draw func(int) int, budget int) *firingModel {
	m := &firingModel{t: t, label: label, loop: NewLoop(), draw: draw, budget: budget}
	m.argFn = func(now Time, arg any) { m.fire(now, arg.(int)) }
	m.timers = make([]Timer, 12)
	m.timerID = make([]int, len(m.timers))
	for k := range m.timers {
		k := k
		m.timerID[k] = -1
		m.timers[k] = m.loop.NewTimer(func(now Time) {
			id := m.timerID[k]
			m.timerID[k] = -1
			m.fire(now, id)
		})
	}
	return m
}

// fire checks one firing against the reference queue's head, then lets the
// handler schedule, rearm and stop events of its own.
func (m *firingModel) fire(now Time, id int) {
	m.t.Helper()
	want, ok := m.ref.pop()
	if !ok {
		m.t.Fatalf("%s: event %d fired at %v, reference queue is empty", m.label, id, now)
	}
	if want.id != id || want.at != now {
		m.t.Fatalf("%s: firing #%d is event %d at %v, reference says event %d at %v",
			m.label, m.fired, id, now, want.id, want.at)
	}
	m.fired++
	m.act(m.draw(4))
}

// delay draws a scheduling delay: mostly a few clustered milliseconds
// (shared deadlines form multi-event wheel slots), sometimes negative
// (clamped to now), sometimes a few nanoseconds (level 0 and 1 of the
// wheel), occasionally far in the future (the upper levels).
func (m *firingModel) delay() Time {
	switch m.draw(16) {
	case 0:
		return Time(m.draw(1000)) * Millisecond
	case 1:
		return Time(m.draw(300)) * Nanosecond
	case 2:
		return Time(m.draw(5000)) * Microsecond
	case 3:
		if m.draw(8) == 0 {
			return Time(m.draw(1<<16)) * Second
		}
	}
	return Time(m.draw(12)-2) * Millisecond
}

// act performs n random operations.
func (m *firingModel) act(n int) {
	for ; n > 0; n-- {
		now := m.loop.Now()
		op := m.draw(7)
		if op <= 3 {
			if m.budget <= 0 {
				continue
			}
			m.budget--
		}
		id := m.nextID
		switch op {
		case 0:
			m.nextID++
			d := m.delay()
			m.loop.Schedule(d, func(now Time) { m.fire(now, id) })
			m.ref.push(now+max(d, 0), id)
		case 1:
			m.nextID++
			at := now + m.delay()
			m.loop.ScheduleAt(at, func(now Time) { m.fire(now, id) })
			m.ref.push(max(at, now), id)
		case 2:
			m.nextID++
			d := m.delay()
			m.loop.ScheduleArg(d, m.argFn, id)
			m.ref.push(now+max(d, 0), id)
		case 3:
			m.nextID++
			k := m.draw(len(m.timers))
			d := m.delay()
			m.timers[k].Reset(d)
			if m.timerID[k] >= 0 {
				m.ref.remove(m.timerID[k])
			}
			m.timerID[k] = id
			m.ref.push(now+max(d, 0), id)
		default:
			k := m.draw(len(m.timers))
			m.timers[k].Stop()
			if m.timerID[k] >= 0 {
				m.ref.remove(m.timerID[k])
				m.timerID[k] = -1
			}
		}
	}
}

// runRounds alternates RunUntil deadlines with operations issued between
// them, then drains the loop, checking the clock and the reference queue
// after each deadline.
func (m *firingModel) runRounds(rounds int) {
	m.t.Helper()
	for round := 0; round < rounds && m.loop.Pending() > 0; round++ {
		step := Time(m.draw(8)) * Millisecond
		if m.draw(4) == 0 {
			step = Time(m.draw(200)) * Nanosecond
		}
		deadline := m.loop.Now() + step
		m.loop.RunUntil(deadline)
		if m.loop.Now() != deadline {
			m.t.Fatalf("%s: RunUntil(%v) left the clock at %v", m.label, deadline, m.loop.Now())
		}
		if len(m.ref.entries) > 0 && m.ref.entries[0].at <= deadline {
			e := m.ref.entries[0]
			m.t.Fatalf("%s: event %d at %v still pending after RunUntil(%v)", m.label, e.id, e.at, deadline)
		}
		m.act(m.draw(4))
	}
	m.loop.Run()
	if n := len(m.ref.entries); n != 0 {
		m.t.Fatalf("%s: loop drained with %d reference events unfired (first: %+v)", m.label, n, m.ref.entries[0])
	}
	if m.loop.Pending() != 0 {
		m.t.Fatalf("%s: %d events pending after Run", m.label, m.loop.Pending())
	}
}

// TestFiringOrderMatchesReference is the scheduler's reference model test:
// a seeded random mix of Schedule, ScheduleAt, ScheduleArg, Timer.Reset and
// Timer.Stop — issued both from inside handlers and between RunUntil
// deadlines, with delays spanning every wheel level — must fire every
// event exactly when and in the order a plain sorted queue keyed by
// (at, seq) says it should.
func TestFiringOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := NewRand(seed)
			m := newFiringModel(t, fmt.Sprint("seed ", seed), rng.Intn, 3000)
			m.act(32)
			m.runRounds(400)
			if m.fired < 1000 {
				t.Fatalf("seed %d: only %d events fired; the workload is too thin to test ordering", seed, m.fired)
			}
		})
	}
}

// FuzzLoopMatchesReference drives the same model from fuzzer bytes: every
// draw consumes two bytes, and an exhausted input draws zeros, which ends
// the scheduling budget's use and lets the loop drain. A Loop.Reset midway
// (chosen by the first byte) checks that a reused loop behaves like a new
// one.
func FuzzLoopMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("\x01\x00\x03\x00\x00\x05\x02\x07\x01\x00\x03\x04\x00\x01\x00\x00\x02\x06"))
	f.Add([]byte("\x00\x01\x00\x00\x03\x00\x01\x00\x0f\x00\x00\x00\x02\x00\x01\x00\x05\x00\x03\x00\x0b\x00\x04\x00\x06\x00\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		resetAt := 0
		if len(data) > 0 {
			resetAt = int(data[0])
			data = data[1:]
		}
		pos := 0
		draw := func(n int) int {
			if pos+2 > len(data) {
				return 0
			}
			v := int(binary.LittleEndian.Uint16(data[pos:]))
			pos += 2
			return v % n
		}
		m := newFiringModel(t, "fuzz", draw, 256)
		if resetAt%2 == 1 {
			// Dirty the loop with a pending population, then reuse it.
			for i := 0; i < resetAt; i++ {
				m.loop.Schedule(Time(i)*Microsecond+Second, func(Time) { t.Fatal("event survived Reset") })
			}
			m.loop.RunUntil(Time(resetAt) * Nanosecond)
			m.loop.Reset()
		}
		m.act(8)
		m.runRounds(256)
	})
}
