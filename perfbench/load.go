package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"gpluscircles/internal/core"
	"gpluscircles/internal/graph"
	"gpluscircles/internal/nullmodel"
	"gpluscircles/internal/obs"
	"gpluscircles/internal/score"
	"gpluscircles/internal/serve/api"
)

// target is one (data set, group) the mix can score.
type target struct {
	dataset string
	group   string
	members []graph.VID
}

// mix is a request mix over every group of the suite the tier serves,
// generated in process from the same scale and seed.
type mix struct {
	seed int64
	// nullSamples > 0 makes every request ask for the empirical null
	// with that many samples; 0 asks for the analytic null.
	nullSamples int
	suite       *core.Suite
	targets     []target
}

// repeatShare is the probability that a serve-score client repeats its
// previous request, so the result cache carries load.
const repeatShare = 0.25

func newMix(seed int64, nullSamples int, s *core.Suite) (*mix, error) {
	m := &mix{seed: seed, nullSamples: nullSamples, suite: s}
	for _, name := range core.DatasetNames() {
		ds, err := s.DatasetByName(name)
		if err != nil {
			return nil, err
		}
		for _, g := range ds.Groups {
			m.targets = append(m.targets, target{dataset: name, group: g.Name, members: g.Members})
		}
	}
	if len(m.targets) == 0 {
		return nil, fmt.Errorf("suite has no groups to score")
	}
	return m, nil
}

// stream returns the deterministic request stream of one client in one
// phase of a run.
func (m *mix) stream(phase, client int) *rand.Rand {
	return rand.New(rand.NewSource(m.seed*1_000_003 + int64(phase)*7919 + int64(client)))
}

// draw picks the next request: a uniformly chosen group, with a fresh
// null-model seed when the mix asks for the empirical null.
func (m *mix) draw(rng *rand.Rand) api.ScoreRequest {
	t := m.targets[rng.Intn(len(m.targets))]
	r := api.ScoreRequest{Dataset: t.dataset, Group: t.group}
	if m.nullSamples > 0 {
		r.NullSamples = m.nullSamples
		r.Seed = 1 + rng.Int63n(1<<31)
	}
	return r
}

// warmRequests is one analytic request per data set with groups, so
// every backend has built the lazy state its data sets need.
func (m *mix) warmRequests() []api.ScoreRequest {
	var out []api.ScoreRequest
	seen := map[string]bool{}
	for _, t := range m.targets {
		if seen[t.dataset] {
			continue
		}
		seen[t.dataset] = true
		out = append(out, api.ScoreRequest{Dataset: t.dataset, Group: t.group})
	}
	return out
}

// members resolves a request's group to its vertex set, canonicalised
// (sorted, deduplicated) the way the server does.
func (m *mix) members(r api.ScoreRequest) ([]graph.VID, error) {
	for _, t := range m.targets {
		if t.dataset == r.Dataset && t.group == r.Group {
			vs := append([]graph.VID(nil), t.members...)
			sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
			w := 0
			for i, v := range vs {
				if i == 0 || v != vs[w-1] {
					vs[w] = v
					w++
				}
			}
			return vs[:w], nil
		}
	}
	return nil, fmt.Errorf("group %s/%s not in the mix", r.Dataset, r.Group)
}

// expected computes in process the response the service must return
// for r: score.Evaluate under the analytic null, or under an empirical
// estimator with the request's seed and sample count.
func (m *mix) expected(ctx context.Context, r api.ScoreRequest) ([]byte, error) {
	ds, err := m.suite.DatasetByName(r.Dataset)
	if err != nil {
		return nil, err
	}
	members, err := m.members(r)
	if err != nil {
		return nil, err
	}
	g := ds.Graph
	sctx := m.suite.ScoreContext(g)
	resp := api.ScoreResponse{Dataset: r.Dataset, Group: r.Group, Null: "analytic"}
	if r.NullSamples > 0 {
		est, err := nullmodel.NewEmpiricalEstimatorCtx(ctx, g, nullmodel.EstimatorOptions{
			Samples:  r.NullSamples,
			Seed:     r.Seed,
			Arena:    m.suite.NullArena(g),
			Recorder: m.suite.Recorder(),
		})
		if err != nil {
			return nil, err
		}
		defer est.Close()
		sctx = score.NewContext(g)
		sctx.NullExpectation = est.Func()
		resp.Null, resp.NullSamples, resp.Seed = "empirical", r.NullSamples, r.Seed
	}
	cut := graph.Cut(g, graph.SetOf(g, members))
	resp.N, resp.InternalEdges, resp.BoundaryEdges = cut.N, cut.Internal, cut.Boundary
	resp.Scores = score.Evaluate(sctx, members, score.PaperFuncs())
	return json.Marshal(resp)
}

// checked is one sampled request with the body the service answered.
type checked struct {
	req  api.ScoreRequest
	body []byte
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	latMs    []float64   // per attempted request; +Inf when it failed
	doneAt   []time.Time // when each request in latMs completed
	ops      tally
	problems []string // wrong outputs
	errors   []string // first non-2xx answers and transport errors
	checks   []checked
	backends map[string]int    // answers per X-Backend
	owners   map[string]string // data set -> X-Backend of its answers
	routedMs []float64         // hop phase: latency through the router
	directMs []float64         // hop phase: latency straight to the owner
}

// loadOpts configures one closed-loop phase.
type loadOpts struct {
	base     string // router URL
	phase    int    // selects the request streams
	clients  int
	until    time.Time
	checkP   float64 // probability a request is kept for the in-process check
	checkCap int     // at most this many kept per client
	// owners, when set, makes every second request of a client go
	// straight to the data set's owning backend (the hop phase).
	owners map[string]string
	// timer, when set, observes every request's latency (traced runs).
	timer *obs.Timer
}

// closedLoop runs opts.clients clients until opts.until; each sends its
// next request only after the previous answer arrived.
func closedLoop(ctx context.Context, hc *http.Client, m *mix, opts loadOpts) []*clientLog {
	logs := make([]*clientLog, opts.clients)
	var wg sync.WaitGroup
	for c := 0; c < opts.clients; c++ {
		logs[c] = &clientLog{backends: map[string]int{}, owners: map[string]string{}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(ctx, hc, m, opts, m.stream(opts.phase, c), logs[c])
		}(c)
	}
	wg.Wait()
	return logs
}

func runClient(ctx context.Context, hc *http.Client, m *mix, opts loadOpts, rng *rand.Rand, log *clientLog) {
	var prevReq, prevResp []byte // the last request answered with 200
	var r api.ScoreRequest
	for i := 0; ctx.Err() == nil && now().Before(opts.until); i++ {
		repeat := prevReq != nil && rng.Float64() < repeatShare
		body := prevReq
		if !repeat {
			r = m.draw(rng)
			var err error
			if body, err = json.Marshal(r); err != nil {
				log.problems = append(log.problems, err.Error())
				log.ops.add(false)
				continue
			}
		}
		keep := rng.Float64() < opts.checkP && len(log.checks) < opts.checkCap
		base, direct := opts.base, false
		if owner, ok := opts.owners[r.Dataset]; ok && i%2 == 1 {
			base, direct = owner, true
		}

		start := now()
		data, status, backend, err := postBody(ctx, hc, base, body)
		end := now()
		opts.timer.Observe(end.Sub(start))
		lat := end.Sub(start).Seconds() * 1000
		ok := err == nil && status == http.StatusOK
		var wrong string
		if ok {
			var resp api.ScoreResponse
			if err := json.Unmarshal(data, &resp); err != nil {
				wrong = fmt.Sprintf("response does not decode: %v", err)
			} else if repeat && !bytes.Equal(data, prevResp) {
				wrong = fmt.Sprintf("repeated request %s/%s answered different bytes", r.Dataset, r.Group)
			}
			ok = wrong == ""
		}
		// Keep the first few messages; every failure still counts below.
		switch {
		case wrong != "" && len(log.problems) < 5:
			log.problems = append(log.problems, wrong)
		case err != nil && len(log.errors) < 5:
			log.errors = append(log.errors, err.Error())
		case err == nil && status != http.StatusOK && len(log.errors) < 5:
			log.errors = append(log.errors, fmt.Sprintf("%s/%s: status %d", r.Dataset, r.Group, status))
		}
		log.ops.add(ok)
		if !ok {
			lat = math.Inf(1)
		}
		switch {
		case opts.owners == nil:
			log.latMs = append(log.latMs, lat)
			log.doneAt = append(log.doneAt, end)
		case direct:
			log.directMs = append(log.directMs, lat)
		default:
			log.routedMs = append(log.routedMs, lat)
		}
		if !ok {
			prevReq, prevResp = nil, nil
			continue
		}
		if !direct {
			log.backends[backend]++
			log.owners[r.Dataset] = backend
		}
		if keep {
			log.checks = append(log.checks, checked{req: r, body: data})
		}
		prevReq, prevResp = body, data
	}
}

// verify recomputes every kept response in process and counts a
// mismatch as a failed operation.
func verify(ctx context.Context, o *outcome, m *mix, logs []*clientLog) error {
	for _, l := range logs {
		for _, c := range l.checks {
			want, err := m.expected(ctx, c.req)
			if err != nil {
				return err
			}
			ok := o.check(bytes.Equal(bytes.TrimSpace(c.body), bytes.TrimSpace(want)),
				"%s/%s (null_samples %d, seed %d): served %s, in process %s",
				c.req.Dataset, c.req.Group, c.req.NullSamples, c.req.Seed, c.body, want)
			if !ok {
				// The operation was counted when it was sent; it now fails.
				o.tally.Failed++
			}
		}
	}
	return nil
}
