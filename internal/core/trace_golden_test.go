package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcsquare/internal/txtrace"
)

// traceCorpusProgram replays one corpus program with full-rate tracing and
// returns the exported trace document.
func traceCorpusProgram(t *testing.T, prog *corpusProgram) string {
	t.Helper()
	r, failure := runProgram(t, prog, planes{trace: txtrace.Config{Enabled: true, SampleEvery: 1}})
	if failure != "" {
		t.Fatalf("corpus program diverged under tracing: %s", failure)
	}
	var buf bytes.Buffer
	if err := txtrace.Export(&buf, []*txtrace.Tracer{r.tr}); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.String()
}

// TestCorpusTraceGolden is the tracer's determinism guarantee at the
// engine level: replaying the same corpus program twice must export
// byte-identical trace JSON — span ids, timestamps, ordering, everything.
// The chain-collapse-source-write program is used because it exercises the
// (MC)²-specific stages end to end: CTT inserts, a BPQ hold with dependent
// copies, then reads of still-tracked lines that hit the CTT and bounce.
func TestCorpusTraceGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "chain-collapse-source-write.ops"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parseProgram("chain-collapse-source-write", data)
	if err != nil {
		t.Fatal(err)
	}
	first := traceCorpusProgram(t, prog)
	second := traceCorpusProgram(t, prog)
	if first != second {
		t.Fatalf("trace export differs between identical replays:\n--- first ---\n%.2000s\n--- second ---\n%.2000s",
			first, second)
	}
	for _, stage := range []string{"ctt.insert", "ctt.hit", "mc2.bounce", "mc2.bpq_hold", "mc2.bounce_writeback"} {
		if !strings.Contains(first, `"name":"`+stage+`"`) {
			t.Errorf("trace missing expected stage %q", stage)
		}
	}
}
