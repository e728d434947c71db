package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"gpluscircles/internal/obs"
)

// binaryBytes serializes a graph for bit-identity comparisons; the
// binary format excludes the interning map, so stream-built (index-free)
// and map-backed graphs with the same structure compare equal.
func binaryBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// streamFromPairs builds a graph from the pair list via StreamBuilder,
// using the replay protocol (no SpillDir) or the spill protocol.
func streamFromPairs(t *testing.T, directed bool, pairs [][2]int64, opts StreamOptions) (*Graph, error) {
	t.Helper()
	sb, err := NewStreamBuilder(directed, opts)
	if err != nil {
		t.Fatalf("NewStreamBuilder: %v", err)
	}
	for _, p := range pairs {
		sb.AddEdge(p[0], p[1])
	}
	if opts.SpillDir == "" {
		if err := sb.Rewind(); err != nil {
			return nil, err
		}
		for _, p := range pairs {
			sb.AddEdge(p[0], p[1])
		}
	}
	return sb.Finish()
}

// randomPairs draws edge soup over [0, n): duplicates, self-loops and
// unordered endpoints all occur.
func randomPairs(rng *rand.Rand, n, count int) [][2]int64 {
	pairs := make([][2]int64, count)
	for i := range pairs {
		pairs[i] = [2]int64{rng.Int63n(int64(n)), rng.Int63n(int64(n))}
	}
	return pairs
}

func TestStreamBuilderMatchesBuilderDense(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(40)
			pairs := randomPairs(rng, n, rng.Intn(200))
			want := referenceFromPairs(t, directed, n, pairs)

			got, err := streamFromPairs(t, directed, pairs, StreamOptions{DenseVertices: int64(n)})
			if err != nil {
				t.Fatalf("stream build (directed=%v trial=%d): %v", directed, trial, err)
			}
			if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
				t.Fatalf("directed=%v trial=%d: stream CSR differs from reference:\n got %s\nwant %s",
					directed, trial, edgeFingerprint(got), edgeFingerprint(want))
			}

			b := NewBuilder(directed)
			for v := 0; v < n; v++ {
				b.AddVertex(int64(v))
			}
			for _, p := range pairs {
				b.AddEdge(p[0], p[1])
			}
			built, err := b.Build()
			if err != nil {
				t.Fatalf("Build (directed=%v trial=%d): %v", directed, trial, err)
			}
			if !bytes.Equal(binaryBytes(t, built), binaryBytes(t, want)) {
				t.Fatalf("directed=%v trial=%d: Builder CSR differs from reference", directed, trial)
			}
		}
	}
}

func TestStreamBuilderSpill(t *testing.T) {
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		n := 30
		pairs := randomPairs(rng, n, 300)

		want, err := streamFromPairs(t, directed, pairs, StreamOptions{DenseVertices: int64(n)})
		if err != nil {
			t.Fatalf("replay build: %v", err)
		}

		dir := t.TempDir()
		sb, err := NewStreamBuilder(directed, StreamOptions{DenseVertices: int64(n), SpillDir: dir})
		if err != nil {
			t.Fatalf("NewStreamBuilder: %v", err)
		}
		spill := obs.NewRecorder().Gauge("spill")
		sb.Instrument(nil, nil, spill, nil)
		for _, p := range pairs {
			sb.AddEdge(p[0], p[1])
		}
		got, err := sb.Finish()
		if err != nil {
			t.Fatalf("spill build (directed=%v): %v", directed, err)
		}
		if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
			t.Fatalf("directed=%v: spill build differs from replay build", directed)
		}
		// One 8-byte record per non-loop edge.
		if wantBytes := int64(len(pairs)-countSelfLoops(pairs)) * 8; spill.Value() != wantBytes {
			t.Fatalf("spill gauge = %d, want %d", spill.Value(), wantBytes)
		}
		// Spill files are cleaned up by Finish.
		left, err := filepath.Glob(filepath.Join(dir, "gpc-edges-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Fatalf("spill files left behind: %v", left)
		}
	}
}

func countSelfLoops(pairs [][2]int64) int {
	c := 0
	for _, p := range pairs {
		if p[0] == p[1] {
			c++
		}
	}
	return c
}

// TestStreamBuilderConcurrent exercises the atomic count/fill paths (and
// per-producer spill sinks) from multiple goroutines; run under -race.
func TestStreamBuilderConcurrent(t *testing.T) {
	const n, producers, perProducer = 64, 4, 500
	// Deterministic per-producer edge sets.
	edgeSets := make([][][2]int64, producers)
	var all [][2]int64
	for p := range edgeSets {
		rng := rand.New(rand.NewSource(int64(100 + p)))
		edgeSets[p] = randomPairs(rng, n, perProducer)
		all = append(all, edgeSets[p]...)
	}
	want := referenceFromPairs(t, false, n, all)

	t.Run("replay", func(t *testing.T) {
		sb, err := NewStreamBuilder(false, StreamOptions{DenseVertices: n, Workers: producers})
		if err != nil {
			t.Fatal(err)
		}
		stream := func() {
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for _, e := range edgeSets[p] {
						sb.AddEdge(e[0], e[1])
					}
				}(p)
			}
			wg.Wait()
		}
		stream()
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		stream()
		got, err := sb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
			t.Fatal("concurrent replay build differs from reference")
		}
	})

	t.Run("spill", func(t *testing.T) {
		sb, err := NewStreamBuilder(false, StreamOptions{
			DenseVertices: n, Workers: producers, SpillDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			sink, err := sb.NewSink()
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(p int, sink *EdgeSink) {
				defer wg.Done()
				for _, e := range edgeSets[p] {
					sink.AddEdge(e[0], e[1])
				}
				if err := sink.Close(); err != nil {
					t.Error(err)
				}
			}(p, sink)
		}
		wg.Wait()
		got, err := sb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
			t.Fatal("concurrent spill build differs from reference")
		}
	})
}

func TestStreamBuilderErrors(t *testing.T) {
	t.Run("dense range", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(1, 9)
		if err := sb.Rewind(); !errors.Is(err, ErrStreamRange) {
			t.Fatalf("got %v, want ErrStreamRange", err)
		}
	})
	t.Run("oversized dense universe", func(t *testing.T) {
		if _, err := NewStreamBuilder(false, StreamOptions{DenseVertices: 1 << 33}); !errors.Is(err, ErrStreamRange) {
			t.Fatalf("got %v, want ErrStreamRange", err)
		}
	})
	t.Run("finish before pass 2", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(0, 1)
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamPass) {
			t.Fatalf("got %v, want ErrStreamPass", err)
		}
	})
	t.Run("rewind in spill mode", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4, SpillDir: t.TempDir()})
		if err := sb.Rewind(); !errors.Is(err, ErrStreamPass) {
			t.Fatalf("got %v, want ErrStreamPass", err)
		}
	})
	t.Run("extra pass-2 edge", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(0, 1)
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		sb.AddEdge(0, 1)
		sb.AddEdge(0, 2) // never counted
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamMismatch) {
			t.Fatalf("got %v, want ErrStreamMismatch", err)
		}
	})
	t.Run("missing pass-2 edge", func(t *testing.T) {
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 4})
		sb.AddEdge(0, 1)
		sb.AddEdge(2, 3)
		if err := sb.Rewind(); err != nil {
			t.Fatal(err)
		}
		sb.AddEdge(0, 1)
		if _, err := sb.Finish(); !errors.Is(err, ErrStreamMismatch) {
			t.Fatalf("got %v, want ErrStreamMismatch", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		// The universe must be declared: an empty or negative one is
		// rejected up front, so Finish never sees an empty graph.
		for _, opts := range []StreamOptions{{}, {DenseVertices: -1}} {
			if _, err := NewStreamBuilder(false, opts); !errors.Is(err, ErrStreamRange) {
				t.Fatalf("%+v: got %v, want ErrStreamRange", opts, err)
			}
		}
	})
	t.Run("vertices only", func(t *testing.T) {
		// Edge-free builds may Finish straight from pass 1.
		sb, _ := NewStreamBuilder(false, StreamOptions{DenseVertices: 3})
		g, err := sb.Finish()
		if err != nil {
			t.Fatalf("vertex-only build: %v", err)
		}
		if g.NumVertices() != 3 || g.NumEdges() != 0 {
			t.Fatalf("got n=%d m=%d, want n=3 m=0", g.NumVertices(), g.NumEdges())
		}
	})
}

// TestStreamBuilderLookupFallback covers the nil-index binary-search path
// stream-built graphs rely on.
func TestStreamBuilderLookupFallback(t *testing.T) {
	g, err := streamFromPairs(t, false, [][2]int64{{0, 1}, {1, 2}}, StreamOptions{DenseVertices: 5})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < 5; v++ {
		got, ok := g.Lookup(v)
		if !ok || int64(got) != v {
			t.Fatalf("Lookup(%d) = (%d,%v)", v, got, ok)
		}
	}
	if _, ok := g.Lookup(5); ok {
		t.Fatal("Lookup(5) found a vertex outside the universe")
	}
	if _, err := g.MustLookup(-1); err == nil {
		t.Fatal("MustLookup(-1) succeeded")
	}
}

func TestStreamBuilderInstrument(t *testing.T) {
	rec := obs.NewRecorder()
	sb, err := NewStreamBuilder(false, StreamOptions{DenseVertices: 8})
	if err != nil {
		t.Fatal(err)
	}
	p1 := rec.Counter("pass1")
	p2 := rec.Counter("pass2")
	peak := rec.Gauge("peak")
	sb.Instrument(p1, p2, nil, peak)
	pairs := [][2]int64{{0, 1}, {1, 2}, {2, 2}, {1, 0}}
	if _, err := streamReplay(sb, pairs); err != nil {
		t.Fatal(err)
	}
	// Self-loops never reach the counters.
	if p1.Value() != 3 || p2.Value() != 3 {
		t.Fatalf("pass counters = (%d,%d), want (3,3)", p1.Value(), p2.Value())
	}
	if peak.Value() <= 0 {
		t.Fatalf("peak gauge = %d, want > 0", peak.Value())
	}
}

// streamReplay drives the two-pass replay protocol for a fixed pair list.
func streamReplay(sb *StreamBuilder, pairs [][2]int64) (*Graph, error) {
	for _, p := range pairs {
		sb.AddEdge(p[0], p[1])
	}
	if err := sb.Rewind(); err != nil {
		return nil, err
	}
	for _, p := range pairs {
		sb.AddEdge(p[0], p[1])
	}
	return sb.Finish()
}
