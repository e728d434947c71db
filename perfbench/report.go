package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/obs"
)

// childArgs configures one measurement made in a fresh process, so that
// sync.Once caches, kernel caches and VmHWM never carry over from an
// earlier measurement.
type childArgs struct {
	MixSeed  int64 // request-mix seed of the layers child's probes
	Traced   bool
	Manifest string
}

// childOut is what a child prints as its last line.
type childOut struct {
	SetupS      float64            `json:"setup_s"`
	ReportS     float64            `json:"report_s,omitempty"`
	CPUms       float64            `json:"cpu_ms,omitempty"`
	HWMkB       float64            `json:"hwm_kb,omitempty"`
	SHA         string             `json:"sha,omitempty"`
	ClaimsHeld  int                `json:"claims_held"`
	ClaimsTotal int                `json:"claims_total"`
	ClaimsOK    bool               `json:"claims_ok"`
	SerialSHA   string             `json:"serial_sha,omitempty"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

func runChild(mode string, a childArgs) error {
	var out *childOut
	var err error
	switch mode {
	case "setup":
		out = &childOut{}
		_, out.SetupS, err = generateSuite(suiteOptions(nil))
	case "report":
		out, err = childReport(a)
	case "layers":
		out, err = childLayers(a)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// suiteOptions are the options of every suite the benchmark runs on;
// rec, when set, records spans and metrics.
func suiteOptions(rec *obs.Recorder) core.SuiteOptions {
	return core.SuiteOptions{Scale: suiteScale, Seed: suiteSeed, Recorder: rec}
}

// generateSuite builds a fresh suite and generates its five default data
// sets, returning the seconds that took: the report's set-up.
func generateSuite(opts core.SuiteOptions) (*core.Suite, float64, error) {
	start := now()
	s := core.NewSuite(opts)
	for _, name := range core.DatasetNames() {
		if _, err := s.DatasetByName(name); err != nil {
			return nil, 0, err
		}
	}
	return s, seconds(start), nil
}

// childReport is one operation of the report workload: set up a fresh
// suite, then run the full default report on it with workers = nproc.
func childReport(a childArgs) (*childOut, error) {
	var rec *obs.Recorder
	if a.Traced {
		rec = obs.NewRecorder()
		graphalgo.SetRecorder(rec)
	}
	s, setup, err := generateSuite(suiteOptions(rec))
	if err != nil {
		return nil, err
	}
	out := &childOut{SetupS: setup}
	rep, err := timedReport(s, out)
	if err != nil {
		return nil, err
	}
	out.SHA = digest(rep)
	out.ClaimsHeld, out.ClaimsTotal, out.ClaimsOK = scorecardClaims(rep)
	return out, nil
}

// timedReport runs the parallel report on a set-up suite with workers =
// nproc, filling the wall time, the CPU time and the peak RSS of this
// process into out.
func timedReport(s *core.Suite, out *childOut) ([]byte, error) {
	cpu0, err := procCPUms(0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	start := now()
	if err := s.RunAllParallelCtx(context.Background(), &buf, runtime.NumCPU()); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	out.ReportS = seconds(start)
	cpu1, err := procCPUms(0)
	if err != nil {
		return nil, err
	}
	out.CPUms = cpu1 - cpu0
	if out.HWMkB, err = procHWMkB(0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var (
	claimsRE  = regexp.MustCompile(`(?m)^(\d+) of (\d+) claims hold`)
	verdictRE = regexp.MustCompile(`(?m)\s(yes|NO)\s*$`)
)

// scorecardClaims reads the scorecard section of a report: the claims
// its summary line says hold, the claims it evaluated, and whether the
// summary agrees with the per-claim verdicts in its table.
func scorecardClaims(report []byte) (held, total int, consistent bool) {
	start := bytes.Index(report, []byte("[scorecard] ==="))
	if start < 0 {
		return 0, 0, false
	}
	section := report[start:]
	if end := bytes.Index(section[1:], []byte("\n=== ")); end >= 0 {
		section = section[:end+1]
	}
	m := claimsRE.FindSubmatch(section)
	if m == nil {
		return 0, 0, false
	}
	held, _ = strconv.Atoi(string(m[1]))
	total, _ = strconv.Atoi(string(m[2]))
	yes, rows := 0, 0
	for _, v := range verdictRE.FindAllSubmatch(section, -1) {
		rows++
		if string(v[1]) == "yes" {
			yes++
		}
	}
	return held, total, total > 0 && rows == total && yes == held
}

// checkClaims checks that a report's scorecard is whole and that every
// claim holds, as it does for the default report.
func checkClaims(o *outcome, rep *childOut) bool {
	return o.check(rep.ClaimsOK && rep.ClaimsHeld == rep.ClaimsTotal,
		"scorecard: %d of %d claims hold (table consistent: %t)", rep.ClaimsHeld, rep.ClaimsTotal, rep.ClaimsOK)
}

// spawn runs this binary as a child in the given mode and parses its
// result line. The child's standard error passes through.
func spawn(ctx context.Context, mode string, a childArgs) (*childOut, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-child", mode,
		"-seed", strconv.FormatInt(a.MixSeed, 10),
		"-traced=" + strconv.FormatBool(a.Traced),
		"-manifest", a.Manifest,
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s: %w", mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out childOut
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		return nil, fmt.Errorf("child %s: result line: %w", mode, err)
	}
	return &out, nil
}

// setupRepeats is how many extra set-up-only children a report run
// starts, so setup_s is a median of several fresh set-ups.
const setupRepeats = 3

// runReport measures the report workload: fresh report children back
// to back for the run's seconds, plus set-up-only children.
func runReport(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	var a childArgs
	var reps []*childOut
	start := now()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := spawn(ctx, "report", a)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		// Start another report only if it is expected to end within the
		// run's seconds, with 10% grace.
		elapsed := seconds(start)
		if elapsed+elapsed/float64(len(reps)) > cfg.seconds*1.1 {
			break
		}
	}
	var setups, walls, cpus, hwms []float64
	for i, rep := range reps {
		ok := o.check(rep.SHA == reps[0].SHA, "report %d: bytes differ from report 0 at the same seed", i)
		ok = checkClaims(o, rep) && ok
		o.tally.add(ok)
		setups = append(setups, rep.SetupS)
		walls = append(walls, rep.ReportS)
		cpus = append(cpus, rep.CPUms)
		hwms = append(hwms, rep.HWMkB)
	}
	for i := 0; i < setupRepeats; i++ {
		s, err := spawn(ctx, "setup", a)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.SetupS)
	}
	reportOps(o, walls, cpus, hwms)
	o.set("setup_s", median(setups), "s")
	o.note("setup samples: %d", len(setups))
	o.note("scorecard: %d of %d claims hold", reps[0].ClaimsHeld, reps[0].ClaimsTotal)
	return o, nil
}

// reportOps sets the end-to-end metrics of the report workload, where
// one operation is one full report.
func reportOps(o *outcome, walls, cpus, hwms []float64) {
	var total float64
	for _, w := range walls {
		total += w
	}
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = w * 1000
	}
	t := tailOf(ms)
	o.set("rps", ratio(float64(len(walls)), total), "1/s")
	o.set("latency_p50_ms", median(ms), "ms")
	o.set("latency_tail_ms", t.Value, "ms")
	o.set("cpu_ms_per_op", median(cpus), "ms")
	o.set("peak_rss_mb", median(hwms)/1024, "MB")
	o.note("report_s = %s s (median of %d reports)", strconv.FormatFloat(median(walls), 'g', -1, 64), len(walls))
	o.note("latency_tail_ms is p%.4g of %d samples", t.Percentile, t.Samples)
}
