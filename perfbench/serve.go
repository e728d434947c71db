package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/obs"
)

const (
	// serveRounds is how many fresh tiers one serve run boots, one after
	// another, each measured for an equal share of the run. setup_s is
	// the median over the rounds; rps, cpu_ms_per_op and latency_p50_ms
	// are medians over the slices of all windows, so a change in the
	// machine's speed during a run is sampled on both sides of it.
	serveRounds = 5
	// warmup is the closed-loop time before a window opens, so the
	// result cache and the connections are in their steady state.
	warmup = time.Second
	// minWindow bounds a window from below when set-up ran long.
	minWindow = time.Second
	// sliceLen cuts each window into slices of a few thousand requests.
	sliceLen = time.Second
	// tailN is how many consecutive requests one latency_tail_ms sample
	// set holds (see sliceTail), which makes the tail p95. A higher
	// percentile of a larger set swung by a quarter between runs as the
	// shared machine's speed drifted.
	tailN = 200
	// Each client keeps a window request for the in-process output check
	// with probability checkP, at most checkMax per window.
	checkP   = 0.01
	checkMax = 40
)

// interval is one slice of a window: rates, CPU per request and the
// median latency are medians over slices, so a few seconds in which the
// machine runs slow do not move them. It holds the slice's length, the
// requests that completed in it, and the CPU the tier and the load
// generator used.
type interval struct {
	seconds float64
	ok      int
	latMs   []float64
	cpuMs   float64
	selfMs  float64
}

// round is one fresh tier's measurement.
type round struct {
	setupS  float64
	windowS float64
	slices  []interval
	logs    []*clientLog
	hop     []*clientLog // nil unless a hop phase ran
	before  sample
	after   sample
}

// rps is the median over the window's slices of the successful
// requests per second.
func (r *round) rps() float64 {
	var rates []float64
	for _, s := range r.slices {
		rates = append(rates, float64(s.ok)/s.seconds)
	}
	return median(rates)
}

// clientShare is the load generator's share of all CPU the window used.
func (r *round) clientShare() float64 {
	var self, tier float64
	for _, s := range r.slices {
		self += s.selfMs
		tier += s.cpuMs
	}
	return ratio(self, self+tier)
}

// cpuPoint is one reading of the CPU time used so far.
type cpuPoint struct {
	at     time.Time
	sutMs  float64 // router plus backends
	selfMs float64 // this process
}

// readCPU reads the tier's and this process's CPU time.
func (t *tier) readCPU() (cpuPoint, error) {
	p := cpuPoint{at: now()}
	for _, pr := range t.procs() {
		ms, err := procCPUms(pr.pid())
		if err != nil {
			return p, err
		}
		p.sutMs += ms
	}
	self, err := procCPUms(0)
	p.selfMs = self
	return p, err
}

// sampleCPU reads the CPU time every period until stop is closed, then
// sends the readings, the first taken at once.
func (t *tier) sampleCPU(period time.Duration, stop <-chan struct{}, out chan<- []cpuPoint) {
	var pts []cpuPoint
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		// A failed read only merges two slices into one.
		if p, err := t.readCPU(); err == nil {
			pts = append(pts, p)
		}
		select {
		case <-stop:
			out <- pts
			return
		case <-tick.C:
		}
	}
}

// slicesOf cuts a window at the CPU readings and assigns every request
// to the interval it completed in; requests after the last reading
// belong to no full interval and are left out.
func slicesOf(pts []cpuPoint, logs []*clientLog) []interval {
	if len(pts) < 2 {
		return nil
	}
	out := make([]interval, len(pts)-1)
	for i := range out {
		out[i] = interval{
			seconds: pts[i+1].at.Sub(pts[i].at).Seconds(),
			cpuMs:   pts[i+1].sutMs - pts[i].sutMs,
			selfMs:  pts[i+1].selfMs - pts[i].selfMs,
		}
	}
	for _, l := range logs {
		for j, done := range l.doneAt {
			i := sort.Search(len(pts), func(k int) bool { return pts[k].at.After(done) }) - 1
			if i < 0 || i >= len(out) {
				continue
			}
			out[i].latMs = append(out[i].latMs, l.latMs[j])
			if !math.IsInf(l.latMs[j], 1) {
				out[i].ok++
			}
		}
	}
	return out
}

// runRound boots a fresh tier, warms it, measures a closed-loop window
// until the given time, optionally replays the mix half straight at the
// owning backends for hop seconds, and drains the tier.
//
// rec, when set, makes the round traced: spans around its phases and a
// timer observing every window request.
func runRound(ctx context.Context, cfg config, m *mix, phase int, until time.Time, hop time.Duration, rec *obs.Recorder, o *outcome) (*round, error) {
	sp := rec.StartSpan("tier.boot")
	t, setup, err := bootTier(ctx, cfg, m, fmt.Sprintf("%s-%d-p%d", cfg.wl, cfg.seed, phase))
	sp.End()
	if err != nil {
		return nil, err
	}
	defer t.kill()
	r := &round{setupS: setup}
	opts := loadOpts{base: t.url(), phase: 3 * phase, clients: cfg.nproc, until: now().Add(warmup)}
	for _, l := range closedLoop(ctx, t.hc, m, opts) {
		o.absorb(l)
	}
	if r.before, err = t.snapshot(ctx); err != nil {
		return nil, err
	}
	opts.phase, opts.until, opts.checkP, opts.checkCap = 3*phase+1, until, checkP, checkMax
	if earliest := now().Add(minWindow); opts.until.Before(earliest) {
		opts.until = earliest
	}
	opts.timer = rec.Timer("client/score")
	sp = rec.StartSpan("window")
	stop, readings := make(chan struct{}), make(chan []cpuPoint, 1)
	go t.sampleCPU(sliceLen, stop, readings)
	start := now()
	r.logs = closedLoop(ctx, t.hc, m, opts)
	r.windowS = seconds(start)
	close(stop)
	r.slices = slicesOf(<-readings, r.logs)
	sp.End()
	opts.timer = nil
	if r.after, err = t.snapshot(ctx); err != nil {
		return nil, err
	}
	for _, l := range r.logs {
		o.absorb(l)
	}
	if hop > 0 {
		owners := map[string]string{}
		for _, l := range r.logs {
			for ds, b := range l.owners {
				owners[ds] = b
			}
		}
		opts.phase, opts.until, opts.checkP, opts.owners = 3*phase+2, now().Add(hop), 0, owners
		sp = rec.StartSpan("hop")
		r.hop = closedLoop(ctx, t.hc, m, opts)
		sp.End()
		for _, l := range r.hop {
			o.absorb(l)
		}
	}
	sp = rec.StartSpan("tier.drain")
	err = t.shutdown()
	sp.End()
	o.check(err == nil, "tier drain: %v", err)
	return r, ctx.Err()
}

// absorb folds a client's operations and failed checks into o.
func (o *outcome) absorb(l *clientLog) {
	o.tally.merge(l.ops)
	o.problems = append(o.problems, l.problems...)
	for _, e := range l.errors {
		o.note("request failed: %s", e)
	}
}

// prepareMix generates, in process, the suite the tier will serve, and
// the analytic serve-score mix over it.
func prepareMix(mixSeed int64) (*mix, error) {
	return newMix(mixSeed, 0, core.NewSuite(suiteOptions(nil)))
}

// runServe measures serve-score: serveRounds fresh tiers, each measured
// for an equal share of the run's seconds.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	m, err := prepareMix(cfg.seed)
	if err != nil {
		return nil, err
	}
	start := now()
	share := time.Duration(cfg.seconds / serveRounds * float64(time.Second))
	var rounds []*round
	for i := 0; i < serveRounds; i++ {
		r, err := runRound(ctx, cfg, m, i, start.Add(time.Duration(i+1)*share), 0, nil, o)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
	}
	var setups, hwms, lat, rps, cpus, p50s []float64
	var logs []*clientLog
	for _, r := range rounds {
		setups = append(setups, r.setupS)
		hwms = append(hwms, r.after.hwmKB)
		for _, l := range r.logs {
			lat = append(lat, l.latMs...)
		}
		for _, s := range r.slices {
			rps = append(rps, float64(s.ok)/s.seconds)
			cpus = append(cpus, ratio(s.cpuMs, float64(s.ok)))
			p50s = append(p50s, median(s.latMs))
		}
		logs = append(logs, r.logs...)
	}
	if err := verify(ctx, o, m, logs); err != nil {
		return nil, err
	}
	t, n := sliceTail(lat, tailN)
	o.set("setup_s", median(setups), "s")
	o.set("rps", median(rps), "1/s")
	o.set("latency_p50_ms", median(p50s), "ms")
	o.set("latency_tail_ms", t.Value, "ms")
	o.set("cpu_ms_per_op", median(cpus), "ms")
	o.set("peak_rss_mb", median(hwms)/1024, "MB")
	o.note("rps, cpu_ms_per_op and latency_p50_ms are medians over %d slices of %v", len(rps), sliceLen)
	o.note("latency_tail_ms is the median over %d slices of %d consecutive requests of each slice's p%.6g (%d requests in all)",
		n, t.Samples, t.Percentile, len(lat))
	for i, r := range rounds {
		o.note("round %d: setup %.3f s, window %.2f s, %.1f rps", i, r.setupS, r.windowS, r.rps())
	}
	return o, nil
}

// snapDelta sums the backends' metrics over a window: counters and
// timer counts, sums and buckets are differences, timer maxima are the
// later reading.
func snapDelta(before, after []obs.Snapshot) obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]int64{}, Timers: map[string]obs.TimerStat{}}
	for i := range after {
		for name, v := range after[i].Counters {
			out.Counters[name] += v - before[i].Counters[name]
		}
		for name, ts := range after[i].Timers {
			prev := before[i].Timers[name]
			acc := out.Timers[name]
			acc.Count += ts.Count - prev.Count
			acc.SumNs += ts.SumNs - prev.SumNs
			if ts.MaxNs > acc.MaxNs {
				acc.MaxNs = ts.MaxNs
			}
			for b, n := range ts.Buckets {
				if d := n - prev.Buckets[b]; d > 0 {
					if acc.Buckets == nil {
						acc.Buckets = map[int]int64{}
					}
					acc.Buckets[b] += d
				}
			}
			out.Timers[name] = acc
		}
	}
	for name, ts := range out.Timers {
		if ts.Count > 0 {
			ts.MeanNs = float64(ts.SumNs) / float64(ts.Count)
			out.Timers[name] = ts
		}
	}
	return out
}
