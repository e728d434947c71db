package nullmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/graphalgo"
	"gpluscircles/internal/score"
)

func randomConnectedGraph(t *testing.T, seed int64, n, extra int, directed bool) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(directed)
	// Spanning path guarantees weak connectivity.
	for i := 1; i < n; i++ {
		b.AddEdge(int64(i-1), int64(i))
	}
	for k := 0; k < extra; k++ {
		b.AddEdge(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func degreesEqual(a, b *graph.Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.InDegree(graph.VID(v)) != b.InDegree(graph.VID(v)) ||
			a.OutDegree(graph.VID(v)) != b.OutDegree(graph.VID(v)) {
			return false
		}
	}
	return true
}

func TestRewirePreservesDegreesUndirected(t *testing.T) {
	g := randomConnectedGraph(t, 1, 50, 150, false)
	rg, err := Rewire(g, 10, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !degreesEqual(g, rg) {
		t.Error("degree sequence changed")
	}
	if rg.NumEdges() != g.NumEdges() {
		t.Errorf("edge count changed %d -> %d", g.NumEdges(), rg.NumEdges())
	}
}

func TestRewirePreservesDegreesDirected(t *testing.T) {
	g := randomConnectedGraph(t, 3, 40, 200, true)
	rg, err := Rewire(g, 10, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !degreesEqual(g, rg) {
		t.Error("in/out degree sequence changed")
	}
}

func TestRewireActuallyRandomizes(t *testing.T) {
	g := randomConnectedGraph(t, 5, 60, 200, false)
	rg, err := Rewire(g, 10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	// Count shared edges; a well-mixed rewire should move most of them.
	shared := 0
	rg.Edges(func(e graph.Edge) bool {
		if g.HasEdge(e.From, e.To) {
			shared++
		}
		return true
	})
	if float64(shared) > 0.8*float64(g.NumEdges()) {
		t.Errorf("rewire kept %d/%d edges; chain not mixing", shared, g.NumEdges())
	}
}

func TestRewireNilRNG(t *testing.T) {
	g := randomConnectedGraph(t, 7, 10, 10, false)
	if _, err := Rewire(g, 1, nil); !errors.Is(err, ErrNoRNG) {
		t.Errorf("err = %v, want ErrNoRNG", err)
	}
}

func TestRewireConnectedStaysConnected(t *testing.T) {
	g := randomConnectedGraph(t, 8, 80, 120, false)
	rg, err := RewireConnected(g, 8, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if !graphalgo.IsConnected(rg) {
		t.Error("RewireConnected produced a disconnected graph")
	}
	if !degreesEqual(g, rg) {
		t.Error("degree sequence changed")
	}
}

func TestRewireConnectedRejectsDisconnected(t *testing.T) {
	g, err := graph.FromEdges(false, [][2]int64{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RewireConnected(g, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("disconnected input accepted")
	}
}

func TestHavelHakimiRegular(t *testing.T) {
	// 3-regular on 6 vertices is graphical.
	g, err := FromDegreeSequence([]int{3, 3, 3, 3, 3, 3}, 5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VID(v)) != 3 {
			t.Errorf("degree(%d) = %d, want 3", v, g.Degree(graph.VID(v)))
		}
	}
}

func TestHavelHakimiStar(t *testing.T) {
	g, err := FromDegreeSequence([]int{3, 1, 1, 1}, 0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3", g.NumEdges())
	}
}

func TestHavelHakimiNotGraphical(t *testing.T) {
	cases := [][]int{
		{1},          // odd sum
		{3, 1},       // degree exceeds n-1
		{3, 3, 1, 1}, // fails HH recursion
	}
	for _, deg := range cases {
		if _, err := FromDegreeSequence(deg, 0, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNotGraphical) {
			t.Errorf("sequence %v: err = %v, want ErrNotGraphical", deg, err)
		}
	}
}

func TestEmpiricalExpectationApproachesAnalytic(t *testing.T) {
	g := randomConnectedGraph(t, 10, 60, 400, false)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{
		Samples: 20, SwapsPerEdge: 8, RNG: rand.New(rand.NewSource(11)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := score.NewContext(g)
	// A random half of the vertices.
	var members []graph.VID
	for v := 0; v < g.NumVertices(); v += 2 {
		members = append(members, graph.VID(v))
	}
	set := graph.SetOf(g, members)
	emp := est.Expectation(set)
	ana := ctx.ChungLuExpectation(set)
	// The Chung–Lu expectation ignores simplicity constraints; agreement
	// within 30% relative error is expected at this density.
	if ana == 0 {
		t.Fatal("analytic expectation is 0")
	}
	if rel := math.Abs(emp-ana) / ana; rel > 0.3 {
		t.Errorf("empirical %v vs analytic %v: relative error %v > 0.3", emp, ana, rel)
	}
}

// TestEmpiricalExpectationValidation pins how the estimator resolves
// its zero-valued options: Samples 0 selects 32, and a nil RNG selects
// the private stream seeded with Seed rather than failing.
func TestEmpiricalExpectationValidation(t *testing.T) {
	g := randomConnectedGraph(t, 12, 10, 10, false)
	est, err := NewEmpiricalEstimator(g, EstimatorOptions{SwapsPerEdge: 1, RNG: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples() != 32 {
		t.Errorf("Samples() = %d with Samples 0, want the default 32", est.Samples())
	}

	set := graph.SetOf(g, []graph.VID{0, 1, 2, 3, 4})
	seeded, err := NewEmpiricalEstimator(g, EstimatorOptions{Samples: 3, SwapsPerEdge: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := NewEmpiricalEstimator(g, EstimatorOptions{Samples: 3, SwapsPerEdge: 1, RNG: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seeded.Expectation(set), explicit.Expectation(set); got != want {
		t.Errorf("nil RNG with Seed 5: %v, want the explicit seed-5 stream's %v", got, want)
	}
}

// Property: rewiring preserves per-vertex in/out degrees, edge count and
// simplicity for any random connected seed graph.
func TestQuickRewireInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		directed := seed%2 == 0
		b := graph.NewBuilder(directed)
		n := 12 + rng.Intn(20)
		for i := 1; i < n; i++ {
			b.AddEdge(int64(i-1), int64(i))
		}
		for k := 0; k < 3*n; k++ {
			b.AddEdge(rng.Int63n(int64(n)), rng.Int63n(int64(n)))
		}
		g, err := b.Build()
		if err != nil {
			return true
		}
		rg, err := Rewire(g, 5, rng)
		if err != nil {
			return false
		}
		if !degreesEqual(g, rg) || rg.NumEdges() != g.NumEdges() {
			return false
		}
		// Simplicity: no self-loops (builder drops them, so edge count
		// would have changed) and no duplicates (same).
		ok := true
		rg.Edges(func(e graph.Edge) bool {
			if e.From == e.To {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEmpiricalExpectationWorkersDeterministic asserts the parallel
// sampler is invariant under worker count: every sample owns a child RNG
// seeded from the parent stream up front, so the estimator must return
// identical values for 1, 2 and 8 workers at the same seed.
func TestEmpiricalExpectationWorkersDeterministic(t *testing.T) {
	g := randomConnectedGraph(t, 31, 80, 240, true)
	sets := make([]*graph.Set, 5)
	rng := rand.New(rand.NewSource(9))
	for i := range sets {
		members := make([]graph.VID, 0, 12)
		for len(members) < 12 {
			members = append(members, graph.VID(rng.Intn(g.NumVertices())))
		}
		sets[i] = graph.SetOf(g, members)
	}

	var baseline []float64
	for _, workers := range []int{1, 2, 8} {
		est, err := NewEmpiricalEstimator(g, EstimatorOptions{
			Samples: 6, SwapsPerEdge: 2, RNG: rand.New(rand.NewSource(123)), Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		vals := make([]float64, len(sets))
		for i, set := range sets {
			vals[i] = est.Expectation(set)
		}
		if baseline == nil {
			baseline = vals
			continue
		}
		for i := range vals {
			if vals[i] != baseline[i] {
				t.Errorf("workers=%d set %d: %v, want %v (workers=1)", workers, i, vals[i], baseline[i])
			}
		}
	}
}

// TestEmpiricalExpectationEstimatorConcurrent exercises the returned
// estimator from multiple goroutines under -race.
func TestEmpiricalExpectationEstimatorConcurrent(t *testing.T) {
	g := randomConnectedGraph(t, 32, 60, 160, false)
	e, err := NewEmpiricalEstimator(g, EstimatorOptions{Samples: 4, SwapsPerEdge: 2, RNG: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	est := e.Func()
	members := make([]graph.VID, 10)
	for i := range members {
		members[i] = graph.VID(i * 3)
	}
	set := graph.SetOf(g, members)
	want := est(set)

	done := make(chan float64, 6)
	for i := 0; i < 6; i++ {
		go func() { done <- est(set) }()
	}
	for i := 0; i < 6; i++ {
		if got := <-done; got != want {
			t.Errorf("concurrent estimate %v, want %v", got, want)
		}
	}
}
