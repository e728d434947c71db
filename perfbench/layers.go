package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/powerlaw"
	"gpluscircles/internal/score"
	"gpluscircles/internal/serve/api"
)

// tracer records a benchmark-side span and a timer around each call
// into a layer.
type tracer struct{ rec *obs.Recorder }

// time runs fn under a span named after the layer, labelled with what
// it ran on, and returns its wall time in seconds.
func (t tracer) time(layer, label string, fn func() error) (float64, error) {
	sp := t.rec.StartSpan(layer)
	sp.SetAttr("label", label)
	start := now()
	err := fn()
	d := seconds(start)
	sp.Fail(err)
	sp.End()
	t.rec.Timer("bench/" + layer + "/" + label).Observe(durationOf(d))
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", layer, label, err)
	}
	return d, nil
}

// Probe sizes of the layers child.
const (
	// estimatorProbes empirical-null requests, each with nullProbeSamples
	// rewired samples and its own seed, are replayed in process.
	estimatorProbes  = 4
	nullProbeSamples = 2
	evalProbes       = 2000 // serve-score requests replayed in process
	// The report's null-model ablation samples gplus with these.
	ablationSamples = 3
	ablationSwaps   = 5
)

// childLayers is the per-layer half of a traced run, in a fresh process.
// It first runs the report untraced (the time core.parallel_speedup and
// obs.trace_overhead_share divide by), then with the recorder on it
// generates each data set, runs every experiment serially, and times the
// public entry points of the lower layers on the same data sets.
func childLayers(a childArgs) (*childOut, error) {
	ctx := context.Background()
	out := &childOut{Layers: map[string]float64{}}
	L := out.Layers

	s0, _, err := generateSuite(suiteOptions(nil))
	if err != nil {
		return nil, err
	}
	rep, err := timedReport(s0, out)
	if err != nil {
		return nil, err
	}
	out.SHA = digest(rep)
	out.ClaimsHeld, out.ClaimsTotal, out.ClaimsOK = scorecardClaims(rep)
	s0, rep = nil, nil
	runtime.GC()

	rec := obs.NewRecorder()
	graphalgo.SetRecorder(rec)
	tr := tracer{rec}
	opts := suiteOptions(rec)

	// Serial traced pass on a fresh suite: the report bytes must equal
	// the untraced parallel report's.
	sA := core.NewSuite(opts)
	for _, name := range core.DatasetNames() {
		if L["synth.generate."+name+"_s"], err = tr.time("synth.generate", name, func() error {
			_, err := sA.DatasetByName(name)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := sA.RunAllCtx(ctx, &buf); err != nil {
		return nil, err
	}
	out.SerialSHA = digest(buf.Bytes())
	serial, err := experimentTimes(L, rec.Spans())
	if err != nil {
		return nil, err
	}
	L["core.parallel_speedup"] = ratio(serial, out.ReportS)
	snap := rec.Snapshot()
	for _, fn := range scoreTimers {
		L["score."+fn+"_ns"] = snap.Timers["score/"+fn].MeanNs
	}
	L["graphalgo.bfs.visits"] = float64(snap.Counters["graphalgo.bfs.visits"])
	sA = nil
	buf = bytes.Buffer{}
	runtime.GC()

	// Lower layers, timed one call at a time on a second fresh suite.
	sB := core.NewSuite(opts)
	for _, name := range core.DatasetNames() {
		if _, err := sB.DatasetByName(name); err != nil {
			return nil, err
		}
	}
	gp, err := sB.GPlus()
	if err != nil {
		return nil, err
	}
	crawl, err := sB.Crawl()
	if err != nil {
		return nil, err
	}
	for _, p := range []struct {
		name string
		g    *graph.Graph
	}{{"gplus", gp.Graph}, {"crawl", crawl.Graph}} {
		ds := gp
		if p.name == "crawl" {
			ds = crawl
		}
		if L["core.profile."+p.name+"_s"], err = tr.time("core.profile", p.name, func() error {
			_, err := sB.Profile(ds)
			return err
		}); err != nil {
			return nil, err
		}
		edges := externalEdges(p.g)
		var rebuilt *graph.Graph
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if L["graph.build."+p.name+"_s"], err = tr.time("graph.build", p.name, func() error {
			rebuilt, err = graph.FromEdges(p.g.Directed(), edges)
			return err
		}); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		L["graph.build."+p.name+"_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
		if L["powerlaw.fit."+p.name+"_s"], err = tr.time("powerlaw.fit", p.name, func() error {
			_, err := powerlaw.Fit(p.g.InDegreeSequence())
			return err
		}); err != nil {
			return nil, err
		}
		switch p.name {
		case "gplus":
			// The rebuilt graph has no triangle kernel cached yet, unlike
			// gp.Graph after its profile.
			if L["graphalgo.triangles.gplus_s"], err = tr.time("graphalgo.triangles", p.name, func() error {
				_, err := graphalgo.TriangleCount(rebuilt)
				return err
			}); err != nil {
				return nil, err
			}
		case "crawl":
			if L["graphalgo.distances.crawl_s"], err = tr.time("graphalgo.distances", p.name, func() error {
				_, err := graphalgo.SampledDistances(p.g, sB.Options().DistanceSources, rand.New(rand.NewSource(suiteSeed)))
				return err
			}); err != nil {
				return nil, err
			}
		}
	}
	if L["nullmodel.estimator.gplus_s"], err = tr.time("nullmodel.estimator", "gplus", func() error {
		est, err := nullmodel.NewEmpiricalEstimator(gp.Graph, nullmodel.EstimatorOptions{
			Samples: ablationSamples, SwapsPerEdge: ablationSwaps, Seed: suiteSeed,
			Arena: sB.NullArena(gp.Graph), Recorder: rec,
		})
		if err == nil {
			est.Close()
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := requestProbes(ctx, tr, L, sB, a.MixSeed); err != nil {
		return nil, err
	}
	nullRatios(L, rec.Snapshot())
	return out, writeManifest(a.Manifest, rec.Manifest(obs.Meta{Tool: "perfbench", Seed: a.MixSeed}))
}

// experimentTimes sets core.exp.<id>_s from the "experiment" spans
// Suite.RunAllCtx records under its "run" span, and returns their sum.
func experimentTimes(L map[string]float64, spans []obs.SpanRecord) (float64, error) {
	var run int64
	for _, sp := range spans {
		if sp.Name == "run" {
			run = sp.ID
		}
	}
	var total float64
	n := 0
	for _, sp := range spans {
		if sp.Name == "experiment" && sp.Parent == run && run != 0 {
			d := float64(sp.DurNs) / 1e9
			L["core.exp."+sp.Attrs["id"]+"_s"] = d
			total += d
			n++
		}
	}
	if want := len(core.Experiments()); n != want {
		return 0, fmt.Errorf("traced report recorded %d experiment spans, want %d", n, want)
	}
	return total, nil
}

// nullRatios sets the null-model layer's useful-work ratios from a
// metrics snapshot.
func nullRatios(L map[string]float64, snap obs.Snapshot) {
	attempts := float64(snap.Counters["nullmodel.rewire.attempts"])
	L["nullmodel.rewire.accept_ratio"] = ratio(attempts-float64(snap.Counters["nullmodel.rewire.rejects"]), attempts)
	hits := float64(snap.Counters["graph.arena.hits"])
	L["graph.arena.hit_ratio"] = ratio(hits, hits+float64(snap.Counters["graph.arena.misses"]))
}

// requestProbes replays request mixes in process: an empirical-null mix
// for the null model's cost per request, and the serve-score mix for
// score.Evaluate and the wire codec per request.
func requestProbes(ctx context.Context, tr tracer, L map[string]float64, s *core.Suite, seed int64) error {
	null, err := newMix(seed, nullProbeSamples, s)
	if err != nil {
		return err
	}
	rng := null.stream(-1, 0)
	var total float64
	for i := 0; i < estimatorProbes; i++ {
		r := null.draw(rng)
		d, err := tr.time("nullmodel.estimator", r.Dataset, func() error {
			_, err := null.expected(ctx, r)
			return err
		})
		if err != nil {
			return err
		}
		total += d
	}
	L["nullmodel.estimator_ms"] = total / estimatorProbes * 1000

	m, err := newMix(seed, 0, s)
	if err != nil {
		return err
	}
	rng = m.stream(-1, 0)
	type probe struct {
		req     api.ScoreRequest
		ctx     *score.Context
		members []graph.VID
		resp    api.ScoreResponse
	}
	probes := make([]probe, evalProbes)
	for i := range probes {
		r := m.draw(rng)
		ds, err := s.DatasetByName(r.Dataset)
		if err != nil {
			return err
		}
		members, err := m.members(r)
		if err != nil {
			return err
		}
		sctx := s.ScoreContext(ds.Graph)
		// Warm the context's lazy degree tables outside the timing.
		score.Evaluate(sctx, members, score.PaperFuncs())
		probes[i] = probe{req: r, ctx: sctx, members: members}
	}
	fns := score.PaperFuncs()
	d, err := tr.time("score.evaluate", "serve-score", func() error {
		for i := range probes {
			p := &probes[i]
			p.resp = api.ScoreResponse{Dataset: p.req.Dataset, Group: p.req.Group, Null: "analytic",
				Scores: score.Evaluate(p.ctx, p.members, fns)}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["score.eval_us"] = d / evalProbes * 1e6
	d, err = tr.time("api.codec", "serve-score", func() error {
		for i := range probes {
			if err := roundTrip(&probes[i].req, &probes[i].resp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["api.codec_us"] = d / evalProbes * 1e6
	return nil
}

// roundTrip encodes and decodes one request and its response, the way
// the client and the server each do once per request.
func roundTrip(req *api.ScoreRequest, resp *api.ScoreResponse) error {
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var r api.ScoreRequest
	if err := dec.Decode(&r); err != nil {
		return err
	}
	if b, err = json.Marshal(resp); err != nil {
		return err
	}
	var s api.ScoreResponse
	return json.Unmarshal(b, &s)
}

// externalEdges lists g's edges by external vertex ID, the input
// graph.FromEdges takes.
func externalEdges(g *graph.Graph) [][2]int64 {
	edges := make([][2]int64, 0, g.NumEdges())
	g.Edges(func(e graph.Edge) bool {
		edges = append(edges, [2]int64{g.ExternalID(e.From), g.ExternalID(e.To)})
		return true
	})
	return edges
}

func writeManifest(path string, m *obs.Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteManifest(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
