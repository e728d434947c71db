package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpluscircles/internal/experiments"
	"gpluscircles/internal/obs"
)

// runWith invokes run() with a fresh flag set and stdout silenced.
func runWith(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() {
		os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout
	}()
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	os.Stdout = devNull
	flag.CommandLine = flag.NewFlagSet("circlebench", flag.ContinueOnError)
	os.Args = append([]string{"circlebench"}, args...)
	return run()
}

func TestRunList(t *testing.T) {
	if err := runWith(t, "-list"); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.manifest.jsonl")
	if err := runWith(t, "-scale", "0.1", "-experiment", "table3", "-manifest", manifest); err != nil {
		t.Fatal(err)
	}
	// The run's manifest must parse back and carry the experiment span.
	f, err := os.Open(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	exps := m.SpansNamed("experiment")
	if len(exps) != 1 || exps[0].Attrs["id"] != "table3" {
		t.Errorf("experiment spans = %+v, want exactly table3", exps)
	}
	// The summary labels each memoized stage with its data set and seed.
	var summary bytes.Buffer
	if err := summarizeManifest(&summary, manifest); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "generate/gplus seed=1 ") {
		t.Errorf("manifest summary lacks the seed-labelled stage:\n%s", summary.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := runWith(t, "-experiment", "nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestFig6ScaleGated: the paper-scale experiment needs the
// -experiments=scale-pipeline opt-in when selected explicitly.
func TestFig6ScaleGated(t *testing.T) {
	err := runWith(t, "-experiment", "fig6-scale", "-manifest", "")
	var unavail experiments.UnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("want UnavailableError, got %v", err)
	}
	if unavail.Name != "scale-pipeline" {
		t.Errorf("error names %q, want scale-pipeline", unavail.Name)
	}
}

// TestFig6ScaleOptIn: with the opt-in the experiment runs (at the tiny
// test scale).
func TestFig6ScaleOptIn(t *testing.T) {
	err := runWith(t, "-experiments", "scale-pipeline", "-scale", "0.05",
		"-experiment", "fig6-scale", "-manifest", "")
	if err != nil {
		t.Fatal(err)
	}
}

// TestCohesionGated: the triangle-cohesion experiment needs the
// -experiments=triangle-cohesion opt-in when selected explicitly, and
// runs with it.
func TestCohesionGated(t *testing.T) {
	err := runWith(t, "-experiment", "cohesion", "-manifest", "")
	var unavail experiments.UnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("want UnavailableError, got %v", err)
	}
	if unavail.Name != "triangle-cohesion" {
		t.Errorf("error names %q, want triangle-cohesion", unavail.Name)
	}
	err = runWith(t, "-experiments", "triangle-cohesion", "-scale", "0.1",
		"-experiment", "cohesion", "-manifest", "")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithCSV(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	if err := runWith(t, "-scale", "0.1", "-experiment", "table3", "-csv", dir, "-manifest", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5.csv")); err != nil {
		t.Errorf("fig5.csv not written: %v", err)
	}
}
