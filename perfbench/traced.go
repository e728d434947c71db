package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/obs"
)

// tracedPhase selects the traced tier round's request streams, apart
// from those of the end-to-end rounds.
const tracedPhase = 10

// runTraced makes a workload's traced run; it is the same on every
// workload but for the request-mix seed. A traced report child (the obs
// recorder on) is compared with the layers child's untraced report, the
// one place the recorder toggles (obs.trace_overhead_share); circled
// always records, so a tier round has no untraced counterpart. The
// layers child times each layer, and one traced tier round with the
// serve-score mix, followed by a replay straight at the owning
// backends, gives the serve, router and client metrics. Spans and
// counters land in one obs manifest under -out.
func runTraced(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	dir := filepath.Join(cfg.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", cfg.wl, cfg.seed))
	rec := obs.NewRecorder()
	L := map[string]float64{}

	sp := rec.StartSpan("report.traced")
	traced, err := spawn(ctx, "report", childArgs{Traced: true})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = rec.StartSpan("layers")
	layers, err := spawn(ctx, "layers", childArgs{MixSeed: cfg.seed, Manifest: base + ".layers.jsonl"})
	sp.End()
	if err != nil {
		return nil, err
	}
	for k, v := range layers.Layers {
		L[k] = v
	}
	L["obs.trace_overhead_share"] = ratio(traced.ReportS, layers.ReportS) - 1
	ok := o.check(traced.SHA == layers.SHA, "traced report bytes differ from the untraced report")
	o.tally.add(checkClaims(o, traced) && ok)
	ok = o.check(layers.SerialSHA == layers.SHA, "traced serial report bytes differ from the untraced parallel report")
	o.tally.add(checkClaims(o, layers) && ok)
	o.note("scorecard: %d of %d claims hold", layers.ClaimsHeld, layers.ClaimsTotal)

	m, err := prepareMix(cfg.seed)
	if err != nil {
		return nil, err
	}
	share := durationOf(cfg.seconds / 4)
	tier, err := runRound(ctx, cfg, m, tracedPhase, now().Add(share), share*2/5, rec, o)
	if err != nil {
		return nil, err
	}
	if err := verify(ctx, o, m, tier.logs); err != nil {
		return nil, err
	}
	delta := snapDelta(tier.before.backends, tier.after.backends)
	tierLayers(L, tier, delta)

	for name, v := range L {
		o.set(name, v, layerUnit(name))
	}
	path := base + ".manifest.jsonl"
	if err := mergeManifest(path, base+".layers.jsonl", rec, delta, cfg, L); err != nil {
		return nil, err
	}
	o.note("trace manifest: %s (summarise with: go run ./cmd/circlebench compare %s)", path, path)
	return o, nil
}

// tierLayers sets the serve, router and client metrics of a traced tier
// round from the backends' /metrics over its window and from the
// client's own view.
func tierLayers(L map[string]float64, r *round, d obs.Snapshot) {
	req, sc := d.Timers["serve/request"], d.Timers["serve/score"]
	hits := float64(d.Counters["serve.cache.hits"])
	L["serve.request_p50_ms"] = req.QuantileNs(0.5) / 1e6
	L["serve.score_p50_ms"] = sc.QuantileNs(0.5) / 1e6
	// Cache hits answer without touching the pool; counting their few
	// microseconds as nothing, an uncached request's mean time beyond the
	// mean score time is what it spent queued.
	L["serve.queue_wait_ms"] = (ratio(float64(req.SumNs), float64(req.Count)-hits) - sc.MeanNs) / 1e6
	L["serve.cache.hit_ratio"] = ratio(hits, hits+float64(d.Counters["serve.cache.misses"]))
	L["serve.coalesced"] = float64(d.Counters["serve.coalesced"])
	L["serve.rejected"] = float64(d.Counters["serve.rejected"])

	var routed, direct []float64
	for _, l := range r.hop {
		routed = append(routed, l.routedMs...)
		direct = append(direct, l.directMs...)
	}
	L["router.hop_ms"] = median(routed) - median(direct)
	per := map[string]int{}
	total := 0
	for _, l := range r.logs {
		for b, n := range l.backends {
			per[b] += n
			total += n
		}
	}
	busiest := 0
	for _, n := range per {
		if n > busiest {
			busiest = n
		}
	}
	L["router.backend_share"] = ratio(float64(busiest), float64(total))
	L["client.cpu_share"] = r.clientShare()
}

// mergeManifest writes the traced run's manifest: the layers child's
// spans and metrics, this process's spans and timers, the backends'
// counters and timers over the traced window (prefixed "tier."), and
// a meta header carrying the run's stamp and every per-layer metric.
func mergeManifest(path, childPath string, rec *obs.Recorder, tierDelta obs.Snapshot, cfg config, L map[string]float64) error {
	f, err := os.Open(childPath)
	if err != nil {
		return err
	}
	m, err := obs.ReadManifest(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", childPath, err)
	}
	var offset int64
	for _, sp := range m.Spans {
		if sp.ID > offset {
			offset = sp.ID
		}
	}
	for _, sp := range rec.Spans() {
		sp.ID += offset
		if sp.Parent != 0 {
			sp.Parent += offset
		}
		m.Spans = append(m.Spans, sp)
	}
	own := rec.Snapshot()
	if m.Metrics.Counters == nil {
		m.Metrics.Counters = map[string]int64{}
	}
	if m.Metrics.Timers == nil {
		m.Metrics.Timers = map[string]obs.TimerStat{}
	}
	for k, v := range own.Timers {
		m.Metrics.Timers[k] = v
	}
	for k, v := range tierDelta.Counters {
		m.Metrics.Counters["tier."+k] = v
	}
	for k, v := range tierDelta.Timers {
		m.Metrics.Timers["tier."+k] = v
	}
	m.Meta = obs.Meta{
		Tool: "perfbench",
		Git:  gitDescribe(),
		Seed: cfg.seed,
		Options: map[string]string{
			"suite-seed": strconv.Itoa(suiteSeed),
			"workload":   cfg.wl,
			"scale":      strconv.FormatFloat(suiteScale, 'g', -1, 64),
			"numcpu":     strconv.Itoa(cfg.nproc),
			"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
			"go":         runtime.Version(),
		},
		Start: rec.Start().UTC().Format(time.RFC3339),
	}
	for k, v := range L {
		m.Meta.Options["metric."+k] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return writeManifest(path, m)
}

// perLayerNames lists every per-layer metric a traced run reports.
func perLayerNames() []string {
	names := []string{
		"core.profile.gplus_s", "core.profile.crawl_s", "core.parallel_speedup",
		"graph.build.gplus_s", "graph.build.crawl_s", "graph.build.gplus_bytes", "graph.build.crawl_bytes",
		"powerlaw.fit.gplus_s", "powerlaw.fit.crawl_s",
		"graphalgo.distances.crawl_s", "graphalgo.triangles.gplus_s", "graphalgo.bfs.visits",
		"nullmodel.estimator.gplus_s", "nullmodel.estimator_ms", "nullmodel.rewire.accept_ratio", "graph.arena.hit_ratio",
		"score.eval_us",
		"serve.request_p50_ms", "serve.score_p50_ms", "serve.queue_wait_ms",
		"serve.cache.hit_ratio", "serve.coalesced", "serve.rejected", "api.codec_us",
		"router.hop_ms", "router.backend_share",
		"client.cpu_share", "obs.trace_overhead_share",
	}
	for _, e := range core.Experiments() {
		names = append(names, "core.exp."+e.ID+"_s")
	}
	for _, ds := range core.DatasetNames() {
		names = append(names, "synth.generate."+ds+"_s")
	}
	for _, fn := range scoreTimers {
		names = append(names, "score."+fn+"_ns")
	}
	sort.Strings(names)
	return names
}

// scoreTimers are the score/* timers the traced report reads.
var scoreTimers = []string{"avgdeg", "ratiocut", "conductance", "modularity", "cohesion", "setcc", "tpr"}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_s", "s"}, {"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_bytes", "bytes"},
		{"_ratio", "ratio"}, {"_share", "ratio"}, {"_speedup", "ratio"},
	} {
		if strings.HasSuffix(name, s.suffix) {
			return s.unit
		}
	}
	return "count"
}
