package graph

import (
	"bytes"
	"fmt"
	"testing"
)

// decodePairs turns fuzz bytes into (u,v) pairs over a small ID space.
// Two bytes per pair keeps the space dense enough that duplicates,
// self-loops and unordered edges all occur naturally.
func decodePairs(data []byte, mod int) [][2]int64 {
	pairs := make([][2]int64, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pairs = append(pairs, [2]int64{int64(data[i] % byte(mod)), int64(data[i+1] % byte(mod))})
	}
	return pairs
}

// edgeFingerprint renders a graph's full structure (IDs + adjacency) for
// equality checks.
func edgeFingerprint(g *Graph) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "directed=%v n=%d m=%d ids=%v\n", g.Directed(), g.NumVertices(), g.NumEdges(), g.ExternalIDs())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(&buf, "%d:%v;%v\n", v, g.OutNeighbors(VID(v)), g.InNeighbors(VID(v)))
	}
	return buf.String()
}

// FuzzBuilder feeds the Builder arbitrary edge soup — duplicates,
// self-loops, unordered endpoints — and checks the built graph upholds
// every structural invariant and equals the sort-based reference build,
// then round-trips it through an identity-rewired Overlay and
// Materialize back to an equal graph.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 1}, false)
	f.Add([]byte{0, 0, 1, 1, 2, 2}, true)       // all self-loops
	f.Add([]byte{1, 2, 2, 1, 1, 2, 2, 1}, true) // duplicates both ways
	f.Add([]byte{7, 3, 3, 7, 5, 5, 0, 7}, false)
	f.Fuzz(func(t *testing.T, data []byte, directed bool) {
		pairs := decodePairs(data, 16)
		g, err := FromEdges(directed, pairs)
		if err != nil {
			// Only the empty graph is rejected.
			if len(pairs) > 0 {
				nonLoop := false
				for _, p := range pairs {
					if p[0] != p[1] {
						nonLoop = true
					}
				}
				if nonLoop {
					t.Fatalf("build rejected non-empty input: %v", err)
				}
			}
			return
		}

		// Structural invariants: no self-loops, rows sorted and
		// duplicate-free, degree sum consistent with m.
		var degSum int64
		for v := 0; v < g.NumVertices(); v++ {
			row := g.OutNeighbors(VID(v))
			for i, w := range row {
				if w == VID(v) {
					t.Fatalf("self-loop survived at vertex %d", v)
				}
				if i > 0 && row[i-1] >= w {
					t.Fatalf("row %d not strictly ascending: %v", v, row)
				}
			}
			degSum += int64(g.Degree(VID(v)))
		}
		if degSum != 2*g.NumEdges() {
			t.Fatalf("degree sum %d != 2m %d", degSum, 2*g.NumEdges())
		}

		// The sort-then-dedup reference must agree on the same edge soup.
		ref := referenceFromPairs(t, directed, 0, pairs)
		if got, want := edgeFingerprint(g), edgeFingerprint(ref); got != want {
			t.Fatalf("Builder diverged from the reference build:\n got %s\nwant %s", got, want)
		}

		// Round-trip: identity overlay -> Materialize must reproduce the
		// graph exactly, regardless of how messy the input edges were.
		o := NewOverlay(g)
		back, err := o.Materialize()
		if err != nil {
			t.Fatalf("materialize identity overlay: %v", err)
		}
		if got, want := edgeFingerprint(back), edgeFingerprint(g); got != want {
			t.Fatalf("materialize round-trip diverged:\n got %s\nwant %s", got, want)
		}
	})
}

// FuzzOverlayFillFromEdges drives the exact-degree fill with both valid
// sequences (the parent's own edges, possibly reordered by the fuzz
// input) and arbitrary invalid ones. Valid fills must succeed without
// the degree-exactness errors ever firing; invalid ones must error
// without corrupting the parent or poisoning the overlay for reuse.
func FuzzOverlayFillFromEdges(f *testing.F) {
	f.Add([]byte{1, 2, 2, 3, 3, 4, 4, 1}, []byte{0}, false)
	f.Add([]byte{1, 2, 2, 3, 1, 3}, []byte{2, 1, 0}, true)
	f.Add([]byte{5, 6, 6, 7}, []byte{9, 9, 9, 9}, false)
	f.Fuzz(func(t *testing.T, graphData, fillData []byte, directed bool) {
		g, err := FromEdges(directed, decodePairs(graphData, 12))
		if err != nil {
			return
		}
		before := edgeFingerprint(g)
		o := NewOverlay(g)

		// Valid fill: the parent's own edge list, rotated by the fuzz
		// input — any order must realize the degree sequence exactly.
		valid := g.EdgeList()
		if len(valid) > 0 && len(fillData) > 0 {
			rot := int(fillData[0]) % len(valid)
			valid = append(valid[rot:], valid[:rot]...)
		}
		if err := o.FillFromEdges(valid); err != nil {
			t.Fatalf("valid fill rejected: %v", err)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if got, want := len(o.OutNeighbors(VID(v))), g.OutDegree(VID(v)); got != want {
				t.Fatalf("vertex %d: overlay row length %d != parent out-degree %d", v, got, want)
			}
		}

		// Arbitrary fill: decoded from the fuzz input over the parent's
		// dense vertex space; most sequences violate the degree sequence
		// and must error cleanly.
		n := g.NumVertices()
		arbitrary := make([]Edge, 0, len(fillData)/2)
		for i := 0; i+1 < len(fillData); i += 2 {
			arbitrary = append(arbitrary, Edge{
				From: VID(int(fillData[i]) % n),
				To:   VID(int(fillData[i+1]) % n),
			})
		}
		fillErr := o.FillFromEdges(arbitrary)
		if fillErr == nil {
			// The fill claimed success, so every row must again be
			// exactly full.
			for v := 0; v < n; v++ {
				if got, want := len(o.OutNeighbors(VID(v))), g.OutDegree(VID(v)); got != want {
					t.Fatalf("accepted fill left vertex %d with %d of %d neighbors", v, got, want)
				}
			}
		}

		// Error or not, the parent is untouched and the overlay remains
		// reusable: a Reset restores the identity view.
		if after := edgeFingerprint(g); after != before {
			t.Fatalf("parent corrupted by fill (err=%v):\nbefore %s\nafter %s", fillErr, before, after)
		}
		o.Reset()
		for v := 0; v < n; v++ {
			parentRow := g.OutNeighbors(VID(v))
			overlayRow := o.OutNeighbors(VID(v))
			for i := range parentRow {
				if overlayRow[i] != parentRow[i] {
					t.Fatalf("overlay not reusable after fill error %v: row %d differs", fillErr, v)
				}
			}
		}
	})
}
