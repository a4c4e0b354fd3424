package experiments

import (
	"strings"
	"testing"
)

// dynRows indexes a result's rows by "scenario+qdisc" for assertions.
func dynRows(r DynamicsResult) map[string]DynamicsRow {
	m := make(map[string]DynamicsRow, len(r.Rows))
	for _, row := range r.Rows {
		m[row.Scenario+"+"+row.Qdisc.String()] = row
	}
	return m
}

// TestDynamicsRecoveryContracts pins the chaos grid's behavioural
// contracts: every cell's load completes (no wedge), the outage cells
// recover rather than fail, the AQM hot-swaps account their drained
// backlog per drain policy, and the loss burst swaps models twice.
func TestDynamicsRecoveryContracts(t *testing.T) {
	r := Dynamics(DefaultDynamics())
	if len(r.Rows) != 12 {
		t.Fatalf("grid has %d cells, want 12", len(r.Rows))
	}
	rows := dynRows(r)

	for key, row := range rows {
		if row.PLTms <= 0 {
			t.Errorf("%s: load never completed (plt=%v) — wedge", key, row.PLTms)
		}
		if row.Resources == 0 {
			t.Errorf("%s: no resources fetched", key)
		}
		if len(row.Transitions) == 0 {
			t.Errorf("%s: script fired no transitions", key)
		}
		if len(row.Epochs) < 2 {
			t.Errorf("%s: %d epochs, want at least pre- and post-fault", key, len(row.Epochs))
		}
	}

	for _, q := range []string{"codel-200p", "fq_codel-200p", "pie-200p"} {
		row, ok := rows["outage+"+q]
		if !ok {
			t.Fatalf("missing outage cell for %s", q)
		}
		// The outage severs the link for 3 s mid-load; the raised RTO cap
		// plus the browser's response deadline must turn that into a
		// recovered (or at worst partial) load, never a hang, and the page
		// cannot finish before the link returns.
		if row.Outcome != "recovered" && row.Outcome != "partial" {
			t.Errorf("outage+%s: outcome %q, want recovered or partial", q, row.Outcome)
		}
		if row.PLTms <= 4000 {
			t.Errorf("outage+%s: plt %.1fms finished inside the outage window", q, row.PLTms)
		}
		var flushed uint64
		for _, tr := range row.Transitions {
			if strings.HasPrefix(tr.Label, "link-up") {
				flushed += uint64(tr.Dropped)
			}
		}
		if flushed == 0 {
			t.Errorf("outage+%s: link-up flush accounted no dropped backlog", q)
		}
	}

	hold := rows["aqmswap-hold+droptail-200p"]
	if hold.Transitions[0].Moved == 0 || hold.Transitions[0].Dropped != 0 {
		t.Errorf("hold swap moved=%d dropped=%d, want moved>0 dropped=0",
			hold.Transitions[0].Moved, hold.Transitions[0].Dropped)
	}
	flush := rows["aqmswap-flush+droptail-200p"]
	if flush.Transitions[0].Dropped == 0 || flush.Transitions[0].Moved != 0 {
		t.Errorf("flush swap moved=%d dropped=%d, want dropped>0 moved=0",
			flush.Transitions[0].Moved, flush.Transitions[0].Dropped)
	}
	// Same backlog at the same scripted instant: hold preserves exactly
	// what flush discards.
	if hold.Transitions[0].Moved != flush.Transitions[0].Dropped {
		t.Errorf("hold moved %d but flush dropped %d — swap backlogs diverge",
			hold.Transitions[0].Moved, flush.Transitions[0].Dropped)
	}

	burst := rows["lossburst+codel-200p"]
	if len(burst.Transitions) != 2 {
		t.Fatalf("loss burst fired %d transitions, want 2", len(burst.Transitions))
	}
	if got := burst.Transitions[0].Label; got != "loss-gemodel-p0.3-r0.3" {
		t.Errorf("burst onset label = %q", got)
	}
	if got := burst.Transitions[1].Label; got != "loss-bernoulli-0" {
		t.Errorf("burst clear label = %q", got)
	}

	ho := rows["handover+codel-200p"]
	if got := ho.Transitions[0].Label; got != "handover-wifi" {
		t.Errorf("handover label = %q", got)
	}
}

// TestDynamicsRequiresResponseTimeout: the no-hang contract is enforced at
// the door — a config that disables the browser deadline is refused.
func TestDynamicsRequiresResponseTimeout(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dynamics accepted ResponseTimeout=0")
		}
	}()
	cfg := DefaultDynamics()
	cfg.ResponseTimeout = 0
	Dynamics(cfg)
}
