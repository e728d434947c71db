package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates the checked-in report bytes:
//
//	go test ./internal/core/ -run TestGoldenFig5Fig6 -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden report bytes")

// goldenOptions freezes the suite configuration behind the golden file.
// Changing any of these values changes the report bytes and requires a
// deliberate -update-golden regeneration.
func goldenOptions() SuiteOptions {
	return SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50}
}

const goldenFile = "fig5_fig6.golden"

// fitsGoldenFile pins the sections that rest on the in-degree fits and
// the sampled profiles: Table II, Fig. 3, the scorecard and the
// robustness sweep.
const fitsGoldenFile = "fits.golden"

// extractSection returns one "=== title [id] ===" section of a full
// report, header included, body ending where the next section begins.
func extractSection(t *testing.T, report []byte, id string) []byte {
	t.Helper()
	marker := []byte(fmt.Sprintf("[%s] ===\n", id))
	at := bytes.Index(report, marker)
	if at < 0 {
		t.Fatalf("section %s missing from report", id)
	}
	start := bytes.LastIndex(report[:at], []byte("\n=== "))
	if start < 0 {
		t.Fatalf("section %s has no header", id)
	}
	rest := report[at+len(marker):]
	end := bytes.Index(rest, []byte("\n=== "))
	if end < 0 {
		end = len(rest)
	}
	return report[start : at+len(marker)+end]
}

// sections concatenates the named sections of a full report into a new
// slice, leaving the report untouched.
func sections(t *testing.T, report []byte, ids ...string) []byte {
	t.Helper()
	var out []byte
	for _, id := range ids {
		out = append(out, extractSection(t, report, id)...)
	}
	return out
}

// TestGoldenFig5Fig6 pins the bytes of the paper's two headline score
// comparisons (Fig. 5, Fig. 6) at a frozen seed: the parallel engine's
// report must reproduce them exactly, and the serial single-experiment
// path must agree with the parallel sections byte for byte. Any
// unintended change to scoring, sampling order, or report formatting
// shows up here as a diff against the checked-in file. The same report
// also pins the fit-bearing sections against fits.golden.
func TestGoldenFig5Fig6(t *testing.T) {
	if testing.Short() {
		t.Skip("full report run in -short mode")
	}
	var full bytes.Buffer
	if err := NewSuite(goldenOptions()).RunAllParallelCtx(context.Background(), &full, 8); err != nil {
		t.Fatalf("RunAllParallelCtx: %v", err)
	}
	want := checkGolden(t, goldenFile, sections(t, full.Bytes(), "fig5", "fig6"))
	checkGolden(t, fitsGoldenFile, sections(t, full.Bytes(), "table2", "fig3", "scorecard", "robustness"))

	// The serial path must render the identical sections: header from
	// the registry, body from RunExperimentCtx on a fresh suite.
	serialSuite := NewSuite(goldenOptions())
	var serial bytes.Buffer
	for _, e := range Experiments() {
		if e.ID != "fig5" && e.ID != "fig6" {
			continue
		}
		fmt.Fprintf(&serial, "\n=== %s [%s] ===\n\n", e.Title, e.ID)
		if err := serialSuite.RunExperimentCtx(context.Background(), e, &serial); err != nil {
			t.Fatalf("RunExperimentCtx(%s): %v", e.ID, err)
		}
	}
	if !bytes.Equal(serial.Bytes(), want) {
		t.Fatalf("serial fig5/fig6 bytes diverge from the golden parallel sections (len got %d, want %d)",
			serial.Len(), len(want))
	}
}

// checkGolden compares got with testdata/name (rewriting it first under
// -update-golden) and returns the checked-in bytes.
func checkGolden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s (%d bytes)", path, len(got))
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report bytes diverge from %s (len got %d, want %d); "+
			"if the change is intended, regenerate with -update-golden",
			path, len(got), len(want))
	}
	return want
}
