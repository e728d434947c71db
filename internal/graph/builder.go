package graph

import (
	"errors"
	"slices"
)

// ErrEmptyGraph is returned by Build when no vertices were added.
var ErrEmptyGraph = errors.New("graph: build of empty graph")

// Builder accumulates vertices and edges identified by external int64 IDs
// and produces an immutable Graph. Duplicate edges and self-loops are
// dropped at Build time. The zero Builder is not valid; use NewBuilder.
type Builder struct {
	directed bool
	vertices map[int64]struct{}
	edges    []rawEdge
}

type rawEdge struct {
	u, v int64
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{
		directed: directed,
		vertices: make(map[int64]struct{}),
	}
}

// AddVertex registers an isolated vertex. Vertices referenced by AddEdge
// are registered implicitly; AddVertex is only needed for degree-0
// vertices.
func (b *Builder) AddVertex(id int64) {
	b.vertices[id] = struct{}{}
}

// AddEdge registers the arc (u,v) (directed) or edge {u,v} (undirected).
// Self-loops are ignored. Duplicates are deduplicated at Build time.
func (b *Builder) AddEdge(u, v int64) {
	if u == v {
		return
	}
	b.vertices[u] = struct{}{}
	b.vertices[v] = struct{}{}
	if !b.directed && u > v {
		u, v = v, u // normalize undirected edges for dedup
	}
	b.edges = append(b.edges, rawEdge{u: u, v: v})
}

// Build constructs the immutable Graph. External IDs are assigned dense
// indices in ascending ID order, so construction is deterministic for a
// given edge multiset regardless of insertion order. The edges are
// translated to dense indices once and laid out by StreamBuilder's
// count, place and row-sort core on one goroutine: Build runs inside
// experiments that already fan out.
func (b *Builder) Build() (*Graph, error) {
	if len(b.vertices) == 0 {
		return nil, ErrEmptyGraph
	}

	ids := make([]int64, 0, len(b.vertices))
	for id := range b.vertices {
		ids = append(ids, id)
	}
	slices.Sort(ids)

	index := make(map[int64]VID, len(ids))
	for i, id := range ids {
		index[id] = VID(i)
	}
	dense := make([]Edge, len(b.edges))
	for i, e := range b.edges {
		dense[i] = Edge{From: index[e.u], To: index[e.v]}
	}

	sb := newStreamBuilder(b.directed, int64(len(ids)), 1)
	for _, e := range dense {
		sb.count(e.From, e.To)
	}
	sb.finalizeCounts()
	for _, e := range dense {
		sb.place(e.From, e.To)
	}
	return sb.assemble(ids, index)
}

// FromEdges is a convenience constructor building a graph directly from a
// dense edge list of external IDs.
func FromEdges(directed bool, edges [][2]int64) (*Graph, error) {
	b := NewBuilder(directed)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
