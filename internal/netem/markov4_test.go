package netem

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestMarkov4StateGolden pins the exact delivery pattern of the 4-state
// chain for a fixed seed, in both the classic form (certain delivery in
// transmitting states, certain loss in loss states) and the full form with
// per-state delivery probabilities.
func TestMarkov4StateGolden(t *testing.T) {
	got := geBitmap(NewMarkov4State(0.1, 0.5, 0.2, 0.3, 0.05), 0xfeed, 64)
	const want = "11111111111111111.1..1.11111111.11.111.1111.11111.1111111111111."
	if got != want {
		t.Fatalf("classic 4-state pattern:\n got %s\nwant %s", got, want)
	}

	got = geBitmap(NewMarkov4StateFull(0.1, 0.5, 0.2, 0.3, 0.05, [4]float64{1, 0.9, 0.1, 0}), 0xfeed, 64)
	const wantFull = "11111111111111111.1..1.11111111.11.111.111..11111.1111111111111."
	if got != wantFull {
		t.Fatalf("full 4-state pattern:\n got %s\nwant %s", got, wantFull)
	}
}

// TestMarkov4StateDrawCount verifies the fixed-draw-count contract: like
// GilbertElliott, the 4-state chain consumes exactly two draws per packet
// regardless of state — including state 4, whose return to state 1 is
// certain but still burns the transition draw.
func TestMarkov4StateDrawCount(t *testing.T) {
	const n = 311
	rng := sim.NewRand(42)
	m := NewMarkov4StateFull(0.3, 0.2, 0.3, 0.4, 0.2, [4]float64{0.9, 0.8, 0.2, 0.1})
	for i := 0; i < n; i++ {
		m.Drop(rng)
	}
	ref := sim.NewRand(42)
	for i := 0; i < 2*n; i++ {
		ref.Float64()
	}
	if got, want := rng.Float64(), ref.Float64(); got != want {
		t.Fatalf("RNG stream position diverged after %d packets: next draw %v, want %v", n, got, want)
	}
}

// TestMarkov4StateVisitsAllStates walks a long stream and checks every
// state is reachable with the textbook parameterization, and that the
// empirical loss rate sits strictly between the pure-gap and pure-burst
// extremes (sanity that the chain actually mixes).
func TestMarkov4StateVisitsAllStates(t *testing.T) {
	rng := sim.NewRand(99)
	m := NewMarkov4State(0.05, 0.4, 0.3, 0.2, 0.02)
	seen := map[int]bool{}
	drops := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		seen[m.State()] = true
		if m.Drop(rng) {
			drops++
		}
	}
	for _, st := range []int{StateGapTx, StateBurstTx, StateBurstLoss, StateGapLoss} {
		if !seen[st] {
			t.Errorf("state %d never visited", st)
		}
	}
	rate := float64(drops) / n
	if rate <= 0.01 || rate >= 0.5 {
		t.Fatalf("long-run loss rate %.4f implausible for these parameters", rate)
	}
}

// TestMarkov4StateIsolatedLossReturns pins the state-4 semantic: an
// isolated loss within the gap period lasts exactly one packet. Force
// entry into state 4 and observe the next packet transmit from state 1.
func TestMarkov4StateIsolatedLossReturns(t *testing.T) {
	// P14 = 1: every packet in state 1 hops to state 4 (isolated loss),
	// and the packet after it must come back to state 1.
	m := NewMarkov4State(0, 0, 0, 0, 1)
	rng := sim.NewRand(3)
	var b strings.Builder
	for i := 0; i < 12; i++ {
		if m.Drop(rng) {
			b.WriteByte('.')
		} else {
			b.WriteByte('1')
		}
	}
	// Like GilbertElliott, Drop transitions first and then evaluates loss
	// in the new state, so the hop 1→4 loses the very packet that made it:
	// lose, deliver, lose, deliver...
	if got := b.String(); got != ".1.1.1.1.1.1" {
		t.Fatalf("isolated-loss alternation = %s", got)
	}
}

// TestMarkov4StateValidation pins constructor validation and labels.
func TestMarkov4StateValidation(t *testing.T) {
	bad := [][5]float64{
		{-0.1, 0, 0, 0, 0}, {1.1, 0, 0, 0, 0},
		{0, -0.1, 0, 0, 0}, {0, 0, 1.2, 0, 0},
		{0, 0, 0, -1, 0}, {0, 0, 0, 0, 2},
		{0.7, 0, 0, 0, 0.7}, // p13+p14 > 1
		{0, 0.7, 0.7, 0, 0}, // p31+p32 > 1
	}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMarkov4State(%v) did not panic", b)
				}
			}()
			NewMarkov4State(b[0], b[1], b[2], b[3], b[4])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range delivery probability did not panic")
			}
		}()
		NewMarkov4StateFull(0.1, 0.5, 0.2, 0.3, 0.05, [4]float64{1, 1, 0, -0.5})
	}()

	if got := NewMarkov4State(0.1, 0.5, 0.2, 0.3, 0.05).String(); got != "4state-p13:0.1-p31:0.5-p32:0.2-p23:0.3-p14:0.05" {
		t.Fatalf("classic label = %q", got)
	}
	if got := NewMarkov4StateFull(0.1, 0.5, 0.2, 0.3, 0.05, [4]float64{1, 0.9, 0.1, 0}).String(); got != "4state-p13:0.1-p31:0.5-p32:0.2-p23:0.3-p14:0.05-d:1/0.9/0.1/0" {
		t.Fatalf("full label = %q", got)
	}
}

// TestMarkov4StateScriptSwap verifies that hot-swapping a LossBox to the
// 4-state model mid-run is deterministic and labelled, like the
// Bernoulli→GilbertElliott swap the script suite already pins.
func TestMarkov4StateScriptSwap(t *testing.T) {
	run := func() string {
		loop := sim.NewLoop()
		l := NewLossBox(0.3, sim.NewRand(7))
		var got []*Packet
		l.SetSink(collect(&got))
		script := NewScenarioScript(loop)
		script.LossModelSwap(5*sim.Millisecond, l, NewMarkov4State(0.2, 0.5, 0.2, 0.3, 0.1))
		var b strings.Builder
		for i := 0; i < 40; i++ {
			at := sim.Time(i) * sim.Millisecond / 4
			loop.Schedule(at, func(sim.Time) {
				before := len(got)
				l.Send([]*Packet{{Size: 100}})
				if len(got) > before {
					b.WriteByte('1')
				} else {
					b.WriteByte('.')
				}
			})
		}
		loop.Run()
		script.Finish(loop.Now())
		if tr := script.Transitions(); len(tr) != 1 || tr[0].Label != "loss-4state-p13:0.2-p31:0.5-p32:0.2-p23:0.3-p14:0.1" {
			t.Fatalf("transitions = %+v", tr)
		}
		return b.String()
	}
	first := run()
	if second := run(); first != second {
		t.Fatalf("4-state swap not deterministic:\n%s\n%s", first, second)
	}
	const want = "1.1111..1.111111.1...11.1...11111111.1.."
	if first != want {
		t.Fatalf("swap pattern:\n got %s\nwant %s", first, want)
	}
}
