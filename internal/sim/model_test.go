package sim

import (
	"fmt"
	"sort"
	"testing"
)

// refEntry is one pending event in the reference queue.
type refEntry struct {
	at   Time
	prio int32
	seq  uint64
	id   int
}

func refLess(a, b refEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// refQueue is the reference scheduler: a slice kept sorted by
// (at, priority, seq), the documented firing order, with no buckets, no
// now-queue and no heap. seq counts scheduling operations, so a timer
// rearm takes a fresh position exactly like a cancel-plus-reschedule.
type refQueue struct {
	entries []refEntry
	seq     uint64
}

func (q *refQueue) push(at Time, prio int32, id int) {
	e := refEntry{at: at, prio: prio, seq: q.seq, id: id}
	q.seq++
	i := sort.Search(len(q.entries), func(i int) bool { return refLess(e, q.entries[i]) })
	q.entries = append(q.entries, refEntry{})
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
}

// remove drops the entry with the given id; absent ids (already fired or
// canceled) are a no-op, like canceling a stale handle.
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

// firingModel drives a Loop and a refQueue with the same random operation
// stream and checks every fired event against the reference.
type firingModel struct {
	t      *testing.T
	seed   uint64
	loop   *Loop
	ref    refQueue
	rng    *Rand
	budget int // scheduling operations left; the queue drains once spent
	nextID int
	fired  int
	// events holds every Event handle issued, fired or not, with the id
	// it was scheduled under, so Cancel also exercises stale handles.
	events   []Event
	eventIDs []int
	// timers are rearmed and stopped at random; timerID is the id of each
	// timer's pending firing, -1 when none.
	timers  []Timer
	timerID []int
	argFn   ArgHandler
}

func newFiringModel(t *testing.T, seed uint64, budget int) *firingModel {
	m := &firingModel{t: t, seed: seed, loop: NewLoop(), rng: NewRand(seed), budget: budget}
	m.argFn = func(now Time, arg any) { m.fire(now, arg.(int)) }
	m.timers = make([]Timer, 4)
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
// handler schedule, cancel, rearm and stop events of its own.
func (m *firingModel) fire(now Time, id int) {
	m.t.Helper()
	want, ok := m.ref.pop()
	if !ok {
		m.t.Fatalf("seed %d: event %d fired at %v, reference queue is empty", m.seed, id, now)
	}
	if want.id != id || want.at != now {
		m.t.Fatalf("seed %d: firing #%d is event %d at %v, reference says event %d at %v (priority %d)",
			m.seed, m.fired, id, now, want.id, want.at, want.prio)
	}
	m.fired++
	m.act(m.rng.Intn(4))
}

// delay draws a scheduling delay: mostly a few clustered milliseconds
// (shared deadlines form multi-event runs), sometimes negative (clamped to
// now), occasionally far in the future.
func (m *firingModel) delay() Time {
	if m.rng.Intn(16) == 0 {
		return Time(m.rng.Intn(1000)) * Millisecond
	}
	return Time(m.rng.Intn(12)-2) * Millisecond
}

func (m *firingModel) issue(e Event, id int, at Time, prio int32) {
	m.t.Helper()
	if e.At() != at {
		m.t.Fatalf("seed %d: event %d At() = %v, want %v", m.seed, id, e.At(), at)
	}
	m.ref.push(at, prio, id)
	m.events = append(m.events, e)
	m.eventIDs = append(m.eventIDs, id)
}

// act performs n random operations.
func (m *firingModel) act(n int) {
	for ; n > 0; n-- {
		now := m.loop.Now()
		op := m.rng.Intn(7)
		if op <= 3 || op == 5 {
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
			e := m.loop.Schedule(d, func(now Time) { m.fire(now, id) })
			m.issue(e, id, now+max(d, 0), 0)
		case 1:
			m.nextID++
			at := now + m.delay()
			e := m.loop.ScheduleAt(at, func(now Time) { m.fire(now, id) })
			m.issue(e, id, max(at, now), 0)
		case 2:
			m.nextID++
			d := m.delay()
			prio := int32(m.rng.Intn(5) - 2)
			e := m.loop.SchedulePriority(d, int(prio), func(now Time) { m.fire(now, id) })
			m.issue(e, id, now+max(d, 0), prio)
		case 3:
			m.nextID++
			d := m.delay()
			e := m.loop.ScheduleArg(d, m.argFn, id)
			m.issue(e, id, now+max(d, 0), 0)
		case 4:
			if len(m.events) == 0 {
				continue
			}
			k := m.rng.Intn(len(m.events))
			m.events[k].Cancel()
			m.ref.remove(m.eventIDs[k])
		case 5:
			m.nextID++
			k := m.rng.Intn(len(m.timers))
			d := m.delay()
			m.timers[k].Reset(d)
			if m.timerID[k] >= 0 {
				m.ref.remove(m.timerID[k])
			}
			m.timerID[k] = id
			m.ref.push(now+max(d, 0), 0, id)
		case 6:
			k := m.rng.Intn(len(m.timers))
			m.timers[k].Stop()
			if m.timerID[k] >= 0 {
				m.ref.remove(m.timerID[k])
				m.timerID[k] = -1
			}
		}
	}
}

// TestFiringOrderMatchesReference is the scheduler's reference model test:
// a seeded random mix of Schedule, ScheduleAt, SchedulePriority,
// ScheduleArg, Event.Cancel, Timer.Reset and Timer.Stop — issued both from
// inside handlers and between RunUntil deadlines — must fire every event
// exactly when and in the order a plain sorted queue keyed by
// (at, priority, seq) says it should.
func TestFiringOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m := newFiringModel(t, seed, 3000)
			m.act(32)
			for round := 0; round < 400 && m.loop.Pending() > 0; round++ {
				deadline := m.loop.Now() + Time(m.rng.Intn(8))*Millisecond
				m.loop.RunUntil(deadline)
				if m.loop.Now() != deadline {
					t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, deadline, m.loop.Now())
				}
				if len(m.ref.entries) > 0 && m.ref.entries[0].at <= deadline {
					e := m.ref.entries[0]
					t.Fatalf("seed %d: event %d at %v still pending after RunUntil(%v)", seed, e.id, e.at, deadline)
				}
				m.act(m.rng.Intn(4))
			}
			m.loop.Run()
			if n := len(m.ref.entries); n != 0 {
				t.Fatalf("seed %d: loop drained with %d reference events unfired (first: %+v)", seed, n, m.ref.entries[0])
			}
			if m.loop.Pending() != 0 {
				t.Fatalf("seed %d: %d events pending after Run", seed, m.loop.Pending())
			}
			if m.fired < 1000 {
				t.Fatalf("seed %d: only %d events fired; the workload is too thin to test ordering", seed, m.fired)
			}
		})
	}
}
