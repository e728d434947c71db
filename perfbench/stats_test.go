package main

import (
	"bytes"
	"math"
	"testing"
)

func TestTailOfHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(999 - i) // descending: tailOf must sort
	}
	got := tailOf(xs)
	if got.Value != 989 || got.Samples != 1000 {
		t.Fatalf("tail = %+v, want value 989 of 1000", got)
	}
	if math.Abs(got.Percentile-99) > 1e-12 {
		t.Fatalf("percentile = %v, want 99", got.Percentile)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples beyond the tail, want 10", beyond)
	}
}

func TestTailOfSmallSetsFallBackToMax(t *testing.T) {
	for n := 1; n <= 10; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		got := tailOf(xs)
		if got.Value != float64(n-1) || got.Percentile != 100 || got.Samples != n {
			t.Fatalf("n=%d: tail = %+v, want the maximum at percentile 100", n, got)
		}
	}
	if got := tailOf(nil); got.Samples != 0 {
		t.Fatalf("empty set: tail = %+v", got)
	}
	// Exactly eleven samples: the minimum has ten beyond it.
	xs := []float64{5, 1, 9, 3, 7, 11, 2, 8, 4, 10, 6}
	if got := tailOf(xs); got.Value != 1 {
		t.Fatalf("n=11: tail value = %v, want 1", got.Value)
	}
}

func TestTailOfCountsFailuresAsSlowest(t *testing.T) {
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 10; i++ {
		xs[i] = math.Inf(1)
	}
	if got := tailOf(xs).Value; got != 1 {
		t.Fatalf("ten failures: tail = %v, want 1", got)
	}
	xs[10] = math.Inf(1)
	if got := tailOf(xs).Value; !math.IsInf(got, 1) {
		t.Fatalf("eleven failures: tail = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

func TestTallyFailShare(t *testing.T) {
	var a tally
	if a.failShare() != 0 {
		t.Fatal("empty tally must read 0")
	}
	for i := 0; i < 8; i++ {
		a.add(i != 3)
	}
	var b tally
	b.add(false)
	b.add(true)
	a.merge(b)
	if a.Attempted != 10 || a.Failed != 2 {
		t.Fatalf("tally = %+v, want 10 attempted, 2 failed", a)
	}
	if got := a.failShare(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("fail share = %v, want 0.2", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with a space and a ')' must not shift the fields.
	line := "4242 (circle d) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 3 4 20 0 9 0 777 123456 789 18446744073709551615\n"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3250 {
		t.Fatalf("cpu = %v ms, want 3250 (325 ticks)", got)
	}
	for _, bad := range []string{"", "12 (x) S 1 2", "12 (x) S 1 2 3 4 5 6 7 8 9 10 nan 5 6"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tcircled\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t  400000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 524288 {
		t.Fatalf("VmHWM = %v kB, want 524288", got)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := procCPUms(0); err != nil {
		t.Skipf("no /proc: %v", err)
	}
	hwm, err := procHWMkB(0)
	if err != nil || hwm <= 0 {
		t.Fatalf("VmHWM of self = %v, %v", hwm, err)
	}
}

func TestScorecardClaims(t *testing.T) {
	report := []byte("\n=== Fig. 6 [fig6] ===\n\n2 of 2 claims hold\n" +
		"\n=== Reproduction scorecard [scorecard] ===\n\nClaim  Holds\n-----\n" +
		"fig3   best family: log-normal   yes  \n" +
		"fig6   G+ 0.78 vs Orkut 0.78     NO   \n" +
		"fig2   100.0% overlapping        yes  \n" +
		"\n2 of 3 claims hold on this run (seed 11, scale 1.00).\n" +
		"\n=== Robustness [robustness] ===\n\n1     9 / 9      \n")
	held, total, ok := scorecardClaims(report)
	if held != 2 || total != 3 || !ok {
		t.Fatalf("scorecardClaims = %d, %d, %v; want 2, 3, true", held, total, ok)
	}
	bad := bytes.Replace(report, []byte("2 of 3 claims"), []byte("3 of 3 claims"), 1)
	if _, _, ok := scorecardClaims(bad); ok {
		t.Fatal("a summary contradicting the table must not pass")
	}
	if _, _, ok := scorecardClaims([]byte("no scorecard here")); ok {
		t.Fatal("a report without a scorecard must not pass")
	}
}

func TestSliceTailIsMedianOfSliceTails(t *testing.T) {
	// Three slices of 20 whose tenth-worst samples are 10, 30 and 20,
	// plus five more samples folded into the last slice.
	var xs []float64
	for _, base := range []float64{0, 20, 10} {
		for i := 1; i <= 20; i++ {
			xs = append(xs, base+float64(i))
		}
	}
	xs = append(xs, 0, 0, 0, 0, 0)
	got, n := sliceTail(xs, 20)
	if n != 3 {
		t.Fatalf("%d slices, want 3", n)
	}
	// The last slice holds 11..30 and five zeros: its tenth-worst is 20.
	if got.Value != 20 {
		t.Fatalf("slice tail = %v, want median(10, 30, 20) = 20", got.Value)
	}
	if got.Samples != 20 || math.Abs(got.Percentile-50) > 1e-12 {
		t.Fatalf("slice stats = %+v, want 20 samples at p50", got)
	}
	small, n := sliceTail(xs[:15], 20)
	if n != 1 || small != tailOf(xs[:15]) {
		t.Fatalf("a short set must form one slice: %+v, %d", small, n)
	}
}
