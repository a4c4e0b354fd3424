package experiments

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

// quickContention trims the reference config to CI scale.
func quickContention() ContentionConfig {
	cfg := DefaultContention()
	cfg.Flows = 24
	cfg.BulkBytes = 64 << 10
	return cfg
}

func TestContentionGridShapeAndCompletion(t *testing.T) {
	cfg := quickContention()
	res := Contention(cfg)
	if len(res.Rows) != 16 {
		t.Fatalf("grid has %d rows, want 16 (2 links x 8 qdiscs)", len(res.Rows))
	}
	counts := cfg.Mix.Counts(cfg.Flows)
	links := map[string]int{}
	for _, row := range res.Rows {
		links[row.Link]++
		r := row.Result
		if r.FlowsDone != cfg.Flows || r.Errors != 0 {
			t.Fatalf("%s+%s: done=%d errs=%d, want %d/0",
				row.Link, row.Qdisc.String(), r.FlowsDone, r.Errors, cfg.Flows)
		}
		for cls := engine.Class(0); cls < 3; cls++ {
			if r.Classes[cls].Flows != counts[cls] {
				t.Fatalf("%s+%s: %v flows = %d, want %d",
					row.Link, row.Qdisc.String(), cls, r.Classes[cls].Flows, counts[cls])
			}
		}
	}
	if links["const12"] != 8 || links["cellular"] != 8 {
		t.Fatalf("link split = %v, want 8+8", links)
	}

	out := res.String()
	for _, want := range []string{"const12", "cellular", "fq_codel", "rpc", "share%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}
