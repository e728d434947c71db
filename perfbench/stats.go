package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat.
// It is 100 on every Linux architecture the toolchain targets.
const clockTicks = 100

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample set that still has at
// least ten samples beyond it.
type tail struct {
	Value      float64 // the sample at that percentile
	Percentile float64 // share of samples at or below Value, in percent
	Samples    int     // size of the sample set
}

// tailOf applies the tail rule to xs: with n samples sorted ascending,
// the tail is the sample at index n-11, which has exactly ten samples
// above it, so its percentile is 100·(n-10)/n. With fewer than eleven
// samples no percentile has ten beyond it and the tail falls back to the
// maximum (percentile 100). Infinite samples (failed operations) sort
// last, so failures count as missing any latency limit.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	if n < 11 {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	return tail{Value: s[n-11], Percentile: 100 * float64(n-10) / float64(n), Samples: n}
}

// sliceTail applies the tail rule to consecutive slices of size
// samples (the last slice takes the remainder; fewer than size samples
// form one slice) and returns the median of the slice tails, with the
// percentile and size of a full slice, and the number of slices. The
// tenth-worst sample of a whole run is set by a few rare stalls of the
// machine; the median over slices of a slice's tail is the tail the
// system shows steadily.
func sliceTail(xs []float64, size int) (tail, int) {
	if len(xs) <= size {
		return tailOf(xs), 1
	}
	var vals []float64
	var first tail
	for lo := 0; lo < len(xs); lo += size {
		hi := lo + size
		if len(xs)-hi < size {
			hi = len(xs)
		}
		t := tailOf(xs[lo:hi])
		if lo == 0 {
			first = t
		}
		vals = append(vals, t.Value)
		if hi == len(xs) {
			break
		}
	}
	first.Value = median(vals)
	return first, len(vals)
}

// tally counts operations attempted and failed. An operation fails on a
// non-2xx answer, a transport error or a failed output check; each
// operation counts once however many of those it hit.
type tally struct {
	Attempted int
	Failed    int
}

// add records one operation with its outcome.
func (t *tally) add(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// merge folds another tally into t.
func (t *tally) merge(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// failShare is the share of attempted operations that failed; 0 when
// nothing was attempted.
func (t tally) failShare() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// parseProcStat returns the user plus system CPU time, in milliseconds,
// from the contents of /proc/<pid>/stat. The command name (field 2) may
// contain spaces and parentheses, so fields are counted from the last
// ')'; utime and stime are fields 14 and 15.
func parseProcStat(data string) (float64, error) {
	end := strings.LastIndexByte(data, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", data)
	}
	fields := strings.Fields(data[end+1:])
	// fields[0] is field 3 (state), so field k is fields[k-3].
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(fields))
	}
	var ticks float64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: cpu field %q: %w", f, err)
		}
		ticks += float64(v)
	}
	return ticks * 1000 / clockTicks, nil
}

// parseVmHWM returns the peak resident set size, in KiB, from the
// contents of /proc/<pid>/status.
func parseVmHWM(data string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", sc.Text())
		}
		v, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(v), nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPUms reads the CPU time a process has used so far, in ms. pid 0
// reads the calling process.
func procCPUms(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// procHWMkB reads a process's peak resident set size, in KiB. pid 0
// reads the calling process.
func procHWMkB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}

// ratio is num/den for a positive den, else 0.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
