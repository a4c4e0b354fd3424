package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareFailsOnMissingBaselineRow(t *testing.T) {
	base := map[string]baselineEntry{
		"BenchmarkKept":    {NsPerOp: 100, AllocsPerOp: 2},
		"BenchmarkDeleted": {NsPerOp: 100, AllocsPerOp: 2},
	}
	measured := map[string]baselineEntry{"BenchmarkKept": {NsPerOp: 100, AllocsPerOp: 2}}
	var out strings.Builder
	if !compare(&out, base, measured, []string{"BenchmarkKept"}, 150, 5) {
		t.Fatalf("gate passed with an unmeasured baseline row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "missing Deleted") {
		t.Fatalf("report does not name the missing row:\n%s", out.String())
	}
	if strings.Contains(out.String(), "missing Kept") {
		t.Fatalf("measured row reported missing:\n%s", out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]baselineEntry{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 100}}
	for _, tc := range []struct {
		name     string
		measured map[string]baselineEntry
		order    []string
		fail     bool
	}{
		{"within", map[string]baselineEntry{"BenchmarkA": {NsPerOp: 200, AllocsPerOp: 104}}, []string{"BenchmarkA"}, false},
		{"ns", map[string]baselineEntry{"BenchmarkA": {NsPerOp: 300, AllocsPerOp: 100}}, []string{"BenchmarkA"}, true},
		{"allocs", map[string]baselineEntry{"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 106}}, []string{"BenchmarkA"}, true},
		{"new row", map[string]baselineEntry{
			"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 100},
			"BenchmarkB": {NsPerOp: 1e9, AllocsPerOp: 1e6},
		}, []string{"BenchmarkA", "BenchmarkB"}, false},
	} {
		var out strings.Builder
		if got := compare(&out, base, tc.measured, tc.order, 150, 5); got != tc.fail {
			t.Errorf("%s: compare failed=%v, want %v\n%s", tc.name, got, tc.fail, out.String())
		}
	}
}

// TestParseBenchStripsProcsSuffix checks the bench-output parser the gate
// feeds compare with: -N suffixes are stripped, repeated runs accumulate.
func TestParseBenchStripsProcsSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	text := "goos: linux\n" +
		"BenchmarkLoopSchedule/wheel-2   \t 100\t 5000 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkLoopSchedule/wheel-2   \t 100\t 7000 ns/op\t 0 B/op\t 0 allocs/op\n" +
		"BenchmarkEngine/steal-shards4-2 \t 10\t 9000 ns/op\t 3144 B/op\t 54 allocs/op\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, order := parseBench(path)
	if len(order) != 2 || order[0] != "BenchmarkLoopSchedule/wheel" || order[1] != "BenchmarkEngine/steal-shards4" {
		t.Fatalf("order = %v", order)
	}
	if n := len(runs["BenchmarkLoopSchedule/wheel"]); n != 2 {
		t.Fatalf("wheel runs = %d, want 2", n)
	}
	if e := runs["BenchmarkEngine/steal-shards4"][0]; e.AllocsPerOp != 54 || e.BytesPerOp != 3144 {
		t.Fatalf("engine row = %+v", e)
	}
}
