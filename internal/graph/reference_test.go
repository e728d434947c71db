package graph

import (
	"bytes"
	"sort"
	"testing"
)

// ReferenceBuild exposes the oracle to the external graph_test package.
var ReferenceBuild = (*Builder).referenceBuild

// referenceBuild is a sort-then-dedup construction that shares no code
// with StreamBuilder's layout core: it sorts the whole dense edge list,
// deduplicates it, and lays out each CSR direction from a sorted copy.
// Slow, but independent, so it is the oracle every builder must match
// bit-for-bit.
func (b *Builder) referenceBuild() (*Graph, error) {
	if len(b.vertices) == 0 {
		return nil, ErrEmptyGraph
	}

	ids := make([]int64, 0, len(b.vertices))
	for id := range b.vertices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	index := make(map[int64]VID, len(ids))
	for i, id := range ids {
		index[id] = VID(i)
	}

	// Translate, sort and deduplicate edges on dense indices.
	dense := make([]Edge, len(b.edges))
	for i, e := range b.edges {
		dense[i] = Edge{From: index[e.u], To: index[e.v]}
	}
	sort.Slice(dense, func(i, j int) bool {
		if dense[i].From != dense[j].From {
			return dense[i].From < dense[j].From
		}
		return dense[i].To < dense[j].To
	})
	dense = refDedupEdges(dense)

	g := &Graph{
		directed: b.directed,
		ids:      ids,
		index:    index,
		m:        int64(len(dense)),
	}
	n := len(ids)

	if b.directed {
		g.outOff, g.outAdj = refBuildCSR(n, dense, false)
		g.inOff, g.inAdj = refBuildCSR(n, dense, true)
		return g, nil
	}

	// Undirected: store each edge in both rows; adjacency is symmetric so
	// the reverse CSR aliases the forward one.
	sym := make([]Edge, 0, 2*len(dense))
	for _, e := range dense {
		sym = append(sym, e, Edge{From: e.To, To: e.From})
	}
	sort.Slice(sym, func(i, j int) bool {
		if sym[i].From != sym[j].From {
			return sym[i].From < sym[j].From
		}
		return sym[i].To < sym[j].To
	})
	g.outOff, g.outAdj = refBuildCSR(n, sym, false)
	g.inOff, g.inAdj = g.outOff, g.outAdj
	return g, nil
}

// refDedupEdges removes adjacent duplicates from a sorted edge slice in
// place.
func refDedupEdges(es []Edge) []Edge {
	if len(es) == 0 {
		return es
	}
	w := 1
	for i := 1; i < len(es); i++ {
		if es[i] != es[w-1] {
			es[w] = es[i]
			w++
		}
	}
	return es[:w]
}

// refBuildCSR lays out the (already sorted by From, then To) edges as
// CSR rows. When reverse is true the roles of From and To are swapped
// and the input is re-sorted accordingly.
func refBuildCSR(n int, edges []Edge, reverse bool) ([]int64, []VID) {
	src := edges
	if reverse {
		src = make([]Edge, len(edges))
		for i, e := range edges {
			src[i] = Edge{From: e.To, To: e.From}
		}
		sort.Slice(src, func(i, j int) bool {
			if src[i].From != src[j].From {
				return src[i].From < src[j].From
			}
			return src[i].To < src[j].To
		})
	}
	off := make([]int64, n+1)
	for _, e := range src {
		off[e.From+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]VID, len(src))
	for i, e := range src {
		adj[i] = e.To
	}
	return off, adj
}

// referenceFromPairs builds the oracle graph over vertices [0, n) plus
// whatever the pairs reference.
func referenceFromPairs(t *testing.T, directed bool, n int, pairs [][2]int64) *Graph {
	t.Helper()
	b := NewBuilder(directed)
	for v := 0; v < n; v++ {
		b.AddVertex(int64(v))
	}
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	g, err := b.referenceBuild()
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	return g
}

// TestBuilderMatchesReference covers what dense streams cannot reach:
// arbitrary external IDs, including negatives and wide gaps, interned
// in ascending order, plus an isolated vertex, in any insertion order.
func TestBuilderMatchesReference(t *testing.T) {
	pairs := [][2]int64{
		{100, -7}, {-7, 100}, {5, 5}, {1 << 40, 100}, {3, 1 << 40},
		{-7, 3}, {100, -7}, {3, -7},
	}
	for _, directed := range []bool{false, true} {
		ref := NewBuilder(directed)
		ref.AddVertex(999) // isolated vertex
		for _, p := range pairs {
			ref.AddEdge(p[0], p[1])
		}
		want, err := ref.referenceBuild()
		if err != nil {
			t.Fatalf("reference build: %v", err)
		}

		// Insertion order must not matter.
		b := NewBuilder(directed)
		for i := len(pairs) - 1; i >= 0; i-- {
			b.AddEdge(pairs[i][0], pairs[i][1])
		}
		b.AddVertex(999)
		got, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if !bytes.Equal(binaryBytes(t, got), binaryBytes(t, want)) {
			t.Fatalf("directed=%v: Builder differs from reference:\n got %s\nwant %s",
				directed, edgeFingerprint(got), edgeFingerprint(want))
		}
		if v, ok := got.Lookup(1 << 40); !ok || got.ExternalID(v) != 1<<40 {
			t.Fatalf("Lookup(1<<40) = (%d,%v)", v, ok)
		}
	}
}
