package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"gpluscircles/internal/obs"
)

// summarizeManifest renders a run manifest (`circlebench compare
// RUN.manifest.jsonl`) as a human-readable report: meta, per-experiment
// wall times, stage spans, and the hot-path counters and timers. The
// output is deterministic for a given manifest (spans in completion
// order, metrics sorted by name).
func summarizeManifest(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	fmt.Fprintf(w, "manifest: %s\n", path)
	fmt.Fprintf(w, "tool:     %s", m.Meta.Tool)
	if m.Meta.Git != "" {
		fmt.Fprintf(w, " (%s)", m.Meta.Git)
	}
	fmt.Fprintln(w)
	if m.Meta.Start != "" {
		fmt.Fprintf(w, "start:    %s\n", m.Meta.Start)
	}
	fmt.Fprintf(w, "seed:     %d\n", m.Meta.Seed)
	for _, k := range sortedOptionKeys(m.Meta.Options) {
		fmt.Fprintf(w, "option:   %s=%s\n", k, m.Meta.Options[k])
	}
	if m.Meta.Partial {
		fmt.Fprintf(w, "PARTIAL RUN: %s\n", m.Meta.Err)
	}

	if exps := m.SpansNamed("experiment"); len(exps) > 0 {
		fmt.Fprintf(w, "\nexperiments (%d):\n", len(exps))
		for _, sp := range exps {
			fmt.Fprintf(w, "  %-22s %12s", sp.Attrs["id"], fmtNs(sp.DurNs))
			if a := sp.Attrs["alloc_bytes_approx"]; a != "" {
				fmt.Fprintf(w, "  ~%s B allocated", a)
			}
			if sp.Err != "" {
				fmt.Fprintf(w, "  FAILED: %s", sp.Err)
			}
			fmt.Fprintln(w)
		}
	}

	var stages []obs.SpanRecord
	for _, name := range []string{"generate", "profile", "sample-batch"} {
		stages = append(stages, m.SpansNamed(name)...)
	}
	if len(stages) > 0 {
		fmt.Fprintf(w, "\nstages (%d):\n", len(stages))
		for _, sp := range stages {
			label := sp.Name
			if ds := sp.Attrs["dataset"]; ds != "" {
				label += "/" + ds
			}
			if seed := sp.Attrs["seed"]; seed != "" {
				label += " seed=" + seed
			}
			fmt.Fprintf(w, "  %-30s %12s\n", label, fmtNs(sp.DurNs))
		}
	}

	if len(m.Metrics.Counters) > 0 {
		fmt.Fprintln(w, "\ncounters:")
		for _, name := range sortedOptionKeys(m.Metrics.Counters) {
			fmt.Fprintf(w, "  %-28s %d\n", name, m.Metrics.Counters[name])
		}
	}
	if len(m.Metrics.Timers) > 0 {
		fmt.Fprintln(w, "\ntimers:")
		for _, name := range sortedOptionKeys(m.Metrics.Timers) {
			ts := m.Metrics.Timers[name]
			fmt.Fprintf(w, "  %-28s n=%-8d mean=%-12s max=%s\n",
				name, ts.Count, fmtNs(int64(ts.MeanNs)), fmtNs(ts.MaxNs))
		}
	}
	return nil
}

// sortedOptionKeys returns m's keys in ascending order.
func sortedOptionKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	//lint:ignore maporder keys are sorted immediately below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtNs renders a nanosecond duration compactly (e.g. "1.234s", "87ms").
// Sub-millisecond values keep nanosecond resolution so short timer means
// don't round to zero.
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	if d >= time.Millisecond {
		d = d.Round(time.Microsecond)
	}
	return d.String()
}
