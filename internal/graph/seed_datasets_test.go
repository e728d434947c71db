package graph_test

import (
	"bytes"
	"testing"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/synth"
)

// TestBuilderMatchesReferenceOnSeedDatasets rebuilds every seed data
// set's vertices and edges through the sort-based reference builder and
// requires the binary serialization of the generated graph to match it
// byte for byte: the cross-builder equivalence suite at data-set scale.
func TestBuilderMatchesReferenceOnSeedDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("seed-dataset equivalence is slow; run without -short")
	}
	datasets := []struct {
		name string
		gen  func() (*synth.Dataset, error)
	}{
		{"gplus", func() (*synth.Dataset, error) { return synth.GenerateEgo(synth.DefaultEgoConfig()) }},
		{"twitter", func() (*synth.Dataset, error) { return synth.GenerateFollower(synth.DefaultFollowerConfig()) }},
		{"livejournal", func() (*synth.Dataset, error) {
			return synth.GenerateAGM("LiveJournal", synth.DefaultLiveJournalConfig())
		}},
		{"orkut", func() (*synth.Dataset, error) { return synth.GenerateAGM("Orkut", synth.DefaultOrkutConfig()) }},
		{"crawl", func() (*synth.Dataset, error) { return synth.GenerateCrawl(synth.DefaultCrawlConfig()) }},
	}
	for _, d := range datasets {
		name := d.name
		ds, err := d.gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := ds.Graph
		ref := graph.NewBuilder(g.Directed())
		for _, id := range g.ExternalIDs() {
			ref.AddVertex(id)
		}
		g.Edges(func(e graph.Edge) bool {
			ref.AddEdge(g.ExternalID(e.From), g.ExternalID(e.To))
			return true
		})
		want, err := graph.ReferenceBuild(ref)
		if err != nil {
			t.Fatalf("%s: reference build: %v", name, err)
		}
		if !bytes.Equal(encode(t, g), encode(t, want)) {
			t.Fatalf("%s: generated graph is not bit-identical to the reference build", name)
		}
	}
}

func encode(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}
