package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpluscircles/internal/obs"
)

func runTestOptions() SuiteOptions {
	return SuiteOptions{Scale: 0.15, Seed: 5, DistanceSources: 4, ClusteringSamples: 50}
}

// cancelOnFirstWrite cancels its context on the first byte written, so a
// cancellation lands deterministically while the first experiment is in
// flight (the header write precedes the experiment body).
type cancelOnFirstWrite struct {
	buf    bytes.Buffer
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelOnFirstWrite) Write(p []byte) (int, error) {
	if !c.fired {
		c.fired = true
		c.cancel()
	}
	return c.buf.Write(p)
}

// TestRunAllCtxCancelMidRun: cancelling during the first experiment must
// let that experiment finish (experiments are the atomic unit), emit its
// complete section, and then abort with the wrapped ctx error before the
// second section starts.
func TestRunAllCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelOnFirstWrite{cancel: cancel}

	opts := runTestOptions()
	opts.Recorder = obs.NewRecorder()
	s := NewSuite(opts)

	err := s.RunAllCtx(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	out := w.buf.String()
	if !strings.Contains(out, "[table2]") {
		t.Error("completed first section missing from partial output")
	}
	if strings.Contains(out, "[table3]") {
		t.Error("second section header written after cancellation")
	}

	// The partial run still yields a coherent manifest: a failed run span
	// and one completed experiment span for the section that ran.
	m := opts.Recorder.Manifest(obs.Meta{Tool: "test", Seed: 5, Partial: true, Err: err.Error()})
	runs := m.SpansNamed("run")
	if len(runs) != 1 || runs[0].Err == "" {
		t.Errorf("run span = %+v, want one failed span", runs)
	}
	exps := m.SpansNamed("experiment")
	if len(exps) != 1 || exps[0].Attrs["id"] != "table2" {
		t.Errorf("experiment spans = %+v, want exactly table2", exps)
	}
	if exps[0].Attrs["alloc_bytes_approx"] == "" {
		t.Error("experiment span missing alloc delta attr")
	}
}

// TestRunAllParallelCtxCancelled: an already-cancelled context stops the
// parallel engine within one worker batch — no experiment bodies run, the
// error wraps context.Canceled, and no worker goroutines leak.
func TestRunAllParallelCtxCancelled(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := NewSuite(runTestOptions()).RunAllParallelCtx(ctx, &buf, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(buf.String(), "[table2]") {
		t.Error("emission did not reach the first (cancelled) section header")
	}
	if strings.Contains(buf.String(), "Statistical comparison") {
		t.Error("experiment body ran under a pre-cancelled context")
	}

	// Workers are joined before RunAllParallelCtx returns; give the
	// runtime a moment to retire exiting goroutines, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, got)
	}
}

// TestRunExperimentCtxPreCancelled: a cancelled context refuses to start
// the experiment at all.
func TestRunExperimentCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := ExperimentByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = NewSuite(runTestOptions()).RunExperimentCtx(ctx, e, &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("experiment wrote %d bytes under a pre-cancelled context", buf.Len())
	}
}

// TestRunExperimentCtxInstruments runs one real experiment under a
// recorder and checks the wiring end to end: an experiment span with the
// right id, suite stage spans for the data sets it generated, and
// score-function timers observed via the shared context.
func TestRunExperimentCtxInstruments(t *testing.T) {
	opts := runTestOptions()
	opts.Recorder = obs.NewRecorder()
	s := NewSuite(opts)
	e, err := ExperimentByID("fig6")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.RunExperimentCtx(context.Background(), e, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("experiment produced no output")
	}

	m := opts.Recorder.Manifest(obs.Meta{Tool: "test", Seed: 5})
	exps := m.SpansNamed("experiment")
	if len(exps) != 1 || exps[0].Attrs["id"] != "fig6" {
		t.Fatalf("experiment spans = %+v", exps)
	}
	gens := m.SpansNamed("generate")
	if len(gens) == 0 {
		t.Error("no generate stage spans recorded")
	}
	for _, sp := range gens {
		if sp.Attrs["dataset"] == "" || sp.Attrs["seed"] != "5" {
			t.Errorf("generate span attrs = %v, want a dataset and seed 5", sp.Attrs)
		}
	}
	found := false
	for name, tm := range m.Metrics.Timers {
		if strings.HasPrefix(name, "score/") && tm.Count > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no score-function timers observed; timers = %v", m.Metrics.Timers)
	}
}
