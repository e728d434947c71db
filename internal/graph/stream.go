package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"gpluscircles/internal/obs"
)

// Stream-builder errors. ErrStreamPass flags API misuse (wrong phase),
// ErrStreamMismatch a pass-2 edge stream that does not replay the pass-1
// multiset, and ErrStreamRange a vertex outside the declared dense range.
var (
	ErrStreamPass     = errors.New("graph: stream builder phase error")
	ErrStreamMismatch = errors.New("graph: pass-2 edge stream differs from pass 1")
	ErrStreamRange    = errors.New("graph: vertex outside declared dense range")
)

// StreamOptions configures a StreamBuilder.
type StreamOptions struct {
	// DenseVertices declares the vertex universe up front and must be
	// positive: external IDs are exactly [0, DenseVertices), every vertex
	// exists, no interning map is built, and AddEdge is safe for
	// concurrent use from multiple goroutines. Arbitrary int64 IDs go
	// through Builder, which interns them and then runs this builder's
	// layout core.
	DenseVertices int64
	// SpillDir, when non-empty, buffers the pass-1 edge stream in
	// temporary files under that directory and Finish replays them
	// internally — the caller streams every edge once. Empty selects the
	// replay protocol: the caller streams the edges, calls Rewind, and
	// streams the identical edge multiset again before Finish. Replay
	// suits regenerable streams (deterministic generators); spill suits
	// streams that are expensive or impossible to reproduce.
	SpillDir string
	// Workers bounds the parallelism of the finishing phase (per-row
	// sort/dedup, compaction, spill replay). 0 selects GOMAXPROCS.
	Workers int
}

// StreamBuilder constructs an immutable Graph from two passes over an
// edge stream without ever materializing the edge list: pass 1 counts
// per-vertex degrees, pass 2 writes endpoints straight into the final
// CSR adjacency. Peak memory is O(n + m·sizeof(VID)) — the offsets,
// cursors, and the adjacency the Graph keeps anyway — instead of
// Builder's O(m·16B) raw-edge buffer plus vertex-map overhead. Builder
// lays out its interned edges with the same count, place and row-sort
// core, so for the same edge multiset over [0, n) both produce
// bit-identical Graphs (same dedup, self-loop and ordering semantics).
//
// Protocol (replay mode):
//
//	sb, _ := NewStreamBuilder(directed, StreamOptions{DenseVertices: n})
//	stream(sb.AddEdge)     // pass 1: counting
//	sb.Rewind()
//	stream(sb.AddEdge)     // pass 2: identical multiset, any order
//	g, err := sb.Finish()
//
// Protocol (spill mode): stream once, then Finish; the builder replays
// its spill files itself. Concurrent producers either call AddEdge
// directly (replay mode) or hold one EdgeSink each (spill mode, so spill
// writes stay unsynchronized). Rewind and Finish must not be called
// concurrently with AddEdge.
type StreamBuilder struct {
	directed bool
	workers  int

	pass int32 // 1 = counting, 2 = filling

	n      int64   // vertex count, fixed at construction
	outCnt []int64 // pass-1 degree counts
	inCnt  []int64 // directed only

	outOff, inOff   []int64
	outNext, inNext []int64 // pass-2 fill cursors, advanced atomically
	outAdj, inAdj   []VID

	spillDir   string
	spillBytes atomic.Int64

	mu          sync.Mutex
	sinks       []*EdgeSink
	spills      []string
	defaultSink *EdgeSink

	err atomic.Pointer[error]

	mPass1, mPass2 *obs.Counter
	gSpill, gPeak  *obs.Gauge
}

// NewStreamBuilder returns a StreamBuilder for a directed or undirected
// graph. See StreamOptions for the vertex universe and the spill/replay
// protocols.
func NewStreamBuilder(directed bool, opts StreamOptions) (*StreamBuilder, error) {
	if opts.DenseVertices <= 0 || opts.DenseVertices > math.MaxInt32 {
		return nil, fmt.Errorf("%w: DenseVertices %d outside [1, %d]",
			ErrStreamRange, opts.DenseVertices, math.MaxInt32)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sb := newStreamBuilder(directed, opts.DenseVertices, workers)
	sb.spillDir = opts.SpillDir
	return sb, nil
}

// newStreamBuilder allocates the pass-1 counters for n vertices.
func newStreamBuilder(directed bool, n int64, workers int) *StreamBuilder {
	sb := &StreamBuilder{
		directed: directed,
		workers:  workers,
		pass:     1,
		n:        n,
		outCnt:   make([]int64, n),
	}
	if directed {
		sb.inCnt = make([]int64, n)
	}
	return sb
}

// Instrument attaches observability handles: edge counters for each pass
// plus gauges for spill bytes written and the builder's peak working-set
// estimate. All handles may be nil (no-ops); call before streaming.
func (sb *StreamBuilder) Instrument(pass1, pass2 *obs.Counter, spillBytes, peakBytes *obs.Gauge) {
	sb.mPass1, sb.mPass2 = pass1, pass2
	sb.gSpill, sb.gPeak = spillBytes, peakBytes
}

// setErr records the first error; later ones are dropped.
func (sb *StreamBuilder) setErr(err error) {
	sb.err.CompareAndSwap(nil, &err)
}

func (sb *StreamBuilder) takeErr() error {
	if p := sb.err.Load(); p != nil {
		return *p
	}
	return nil
}

// AddEdge streams the arc (u,v) (directed) or edge {u,v} (undirected).
// Self-loops are ignored; duplicates are deduplicated at Finish, matching
// Builder. In replay mode AddEdge is safe for concurrent use; in
// spill mode concurrent producers must write through per-goroutine
// EdgeSinks instead. Errors (range violations, pass-2 mismatches) are
// latched and reported by Finish.
func (sb *StreamBuilder) AddEdge(u, v int64) {
	if sb.spillDir != "" && sb.pass == 1 {
		sb.sharedSink().AddEdge(u, v)
		return
	}
	sb.addEdge(u, v, nil)
}

// sharedSink lazily creates the sink backing plain AddEdge calls in
// spill mode (serial producers only; concurrent producers use NewSink).
func (sb *StreamBuilder) sharedSink() *EdgeSink {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.defaultSink == nil {
		s, err := sb.newSinkLocked()
		if err != nil {
			sb.setErr(err)
			s = &EdgeSink{sb: sb} // degraded: counts but cannot spill
		}
		sb.defaultSink = s
	}
	return sb.defaultSink
}

// addEdge is the shared pass-dispatching core. sink is non-nil when the
// caller holds an EdgeSink whose spill file should receive the edge.
func (sb *StreamBuilder) addEdge(u, v int64, sink *EdgeSink) {
	if u == v {
		return
	}
	if u < 0 || u >= sb.n || v < 0 || v >= sb.n {
		sb.setErr(fmt.Errorf("%w: edge (%d,%d) with %d dense vertices", ErrStreamRange, u, v, sb.n))
		return
	}
	if sb.pass == 1 {
		sb.count(VID(u), VID(v))
		sb.mPass1.Inc()
		if sink != nil {
			sink.spill(u, v)
		}
		return
	}
	sb.place(VID(u), VID(v))
	sb.mPass2.Inc()
}

// count adds one edge to the pass-1 degree counts. Counters advance
// atomically so concurrent producers may count in parallel.
func (sb *StreamBuilder) count(iu, iv VID) {
	atomic.AddInt64(&sb.outCnt[iu], 1)
	if sb.directed {
		atomic.AddInt64(&sb.inCnt[iv], 1)
	} else {
		atomic.AddInt64(&sb.outCnt[iv], 1)
	}
}

// place writes one edge into the CSR rows reserved by pass 1. Cursors
// advance atomically so concurrent producers fill disjoint slots; rows
// are sorted at Finish, so placement order never reaches the Graph.
func (sb *StreamBuilder) place(iu, iv VID) {
	pos := atomic.AddInt64(&sb.outNext[iu], 1) - 1
	if pos >= sb.outOff[iu+1] {
		sb.setErr(fmt.Errorf("%w: vertex %d receives more edges than counted", ErrStreamMismatch, iu))
		return
	}
	sb.outAdj[pos] = iv
	if sb.directed {
		pos = atomic.AddInt64(&sb.inNext[iv], 1) - 1
		if pos >= sb.inOff[iv+1] {
			sb.setErr(fmt.Errorf("%w: vertex %d receives more in-edges than counted", ErrStreamMismatch, iv))
			return
		}
		sb.inAdj[pos] = iu
		return
	}
	pos = atomic.AddInt64(&sb.outNext[iv], 1) - 1
	if pos >= sb.outOff[iv+1] {
		sb.setErr(fmt.Errorf("%w: vertex %d receives more edges than counted", ErrStreamMismatch, iv))
		return
	}
	sb.outAdj[pos] = iu
}

// Rewind ends the counting pass and prepares the fill pass: the caller
// must then stream the identical edge multiset (any order) and Finish.
// In spill mode Rewind is invalid — Finish replays the spill itself.
func (sb *StreamBuilder) Rewind() error {
	if sb.spillDir != "" {
		return fmt.Errorf("%w: Rewind in spill mode (Finish replays the spill)", ErrStreamPass)
	}
	if sb.pass != 1 {
		return fmt.Errorf("%w: Rewind outside pass 1", ErrStreamPass)
	}
	if err := sb.takeErr(); err != nil {
		return err
	}
	sb.finalizeCounts()
	sb.pass = 2
	return nil
}

// finalizeCounts turns the pass-1 degree counts into CSR offsets, fill
// cursors and adjacency storage.
func (sb *StreamBuilder) finalizeCounts() {
	n := int(sb.n)
	sb.outOff = prefixSum(sb.outCnt)
	sb.outNext = startCursors(sb.outOff)
	sb.outAdj = make([]VID, sb.outOff[n])
	sb.outCnt = nil
	if sb.directed {
		sb.inOff = prefixSum(sb.inCnt)
		sb.inNext = startCursors(sb.inOff)
		sb.inAdj = make([]VID, sb.inOff[n])
		sb.inCnt = nil
	}

	peak := int64(8*(len(sb.outOff)+len(sb.outNext)+len(sb.inOff)+len(sb.inNext))) +
		int64(4*(len(sb.outAdj)+len(sb.inAdj)))
	sb.gPeak.Set(peak)
}

// prefixSum turns per-vertex counts into n+1 CSR offsets.
func prefixSum(counts []int64) []int64 {
	off := make([]int64, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// startCursors copies each row's start offset as its fill cursor.
func startCursors(off []int64) []int64 {
	next := make([]int64, len(off)-1)
	copy(next, off[:len(off)-1])
	return next
}

// Finish completes the build: in spill mode it first replays the spilled
// stream as pass 2, then sorts and deduplicates every CSR row in
// parallel, compacts the adjacency, and assembles the Graph. Spill files
// are always removed.
func (sb *StreamBuilder) Finish() (*Graph, error) {
	defer sb.cleanup()
	if err := sb.closeSinks(); err != nil {
		sb.setErr(err)
	}
	if sb.pass == 1 {
		sb.finalizeCounts()
		sb.pass = 2
		switch {
		case len(sb.spills) > 0:
			sb.replaySpills()
		case sb.totalCounted() != 0:
			return nil, fmt.Errorf("%w: Finish before the pass-2 replay (call Rewind and re-stream)", ErrStreamPass)
		}
	}
	if err := sb.takeErr(); err != nil {
		return nil, err
	}
	sb.gSpill.Set(sb.spillBytes.Load())

	n := int(sb.n)
	for v := 0; v < n; v++ {
		if sb.outNext[v] != sb.outOff[v+1] {
			return nil, fmt.Errorf("%w: vertex %d received %d of %d counted edges",
				ErrStreamMismatch, v, sb.outNext[v]-sb.outOff[v], sb.outOff[v+1]-sb.outOff[v])
		}
		if sb.directed && sb.inNext[v] != sb.inOff[v+1] {
			return nil, fmt.Errorf("%w: vertex %d received %d of %d counted in-edges",
				ErrStreamMismatch, v, sb.inNext[v]-sb.inOff[v], sb.inOff[v+1]-sb.inOff[v])
		}
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return sb.assemble(ids, nil)
}

// assemble sorts, deduplicates and compacts the filled rows and wraps
// them in a Graph with the given ascending external-ID table and
// interning map (nil: Lookup searches ids).
func (sb *StreamBuilder) assemble(ids []int64, index map[int64]VID) (*Graph, error) {
	sb.outOff, sb.outAdj = sortDedupCompact(sb.outOff, sb.outAdj, sb.outNext, sb.workers)
	if sb.directed {
		sb.inOff, sb.inAdj = sortDedupCompact(sb.inOff, sb.inAdj, sb.inNext, sb.workers)
	}

	var m int64
	if sb.directed {
		m = int64(len(sb.outAdj))
		if m != int64(len(sb.inAdj)) {
			return nil, fmt.Errorf("%w: out/in arc counts diverge after dedup (%d vs %d)",
				ErrStreamMismatch, m, len(sb.inAdj))
		}
	} else {
		m = int64(len(sb.outAdj)) / 2
	}

	g := &Graph{
		directed: sb.directed,
		ids:      ids,
		index:    index,
		outOff:   sb.outOff,
		outAdj:   sb.outAdj,
		m:        m,
	}
	if sb.directed {
		g.inOff, g.inAdj = sb.inOff, sb.inAdj
	} else {
		g.inOff, g.inAdj = g.outOff, g.outAdj
	}
	return g, nil
}

// totalCounted returns the pass-1 edge-slot total (valid after
// finalizeCounts).
func (sb *StreamBuilder) totalCounted() int64 {
	if len(sb.outOff) == 0 {
		return 0
	}
	return sb.outOff[len(sb.outOff)-1]
}

// sortDedupCompact sorts every CSR row, removes duplicate entries, and
// compacts the adjacency left so rows stay contiguous. rowLen is reused
// as scratch for the deduplicated row lengths. Sorting and deduping are
// embarrassingly parallel; the in-place compaction must run left to
// right in one goroutine because a later row's destination can overlap
// an earlier row's still-unread source (copy's memmove semantics make a
// row's overlap with itself safe). It is a straight memory move, so
// serializing it is cheap next to the sorts.
func sortDedupCompact(off []int64, adj []VID, rowLen []int64, workers int) ([]int64, []VID) {
	n := len(off) - 1
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	parallelRows(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			row := adj[off[v]:off[v+1]]
			slices.Sort(row)
			rowLen[v] = int64(dedupRow(row))
		}
	})

	newOff := make([]int64, n+1)
	for v := 0; v < n; v++ {
		newOff[v+1] = newOff[v] + rowLen[v]
	}
	for v := 0; v < n; v++ {
		if newOff[v] != off[v] {
			copy(adj[newOff[v]:newOff[v+1]], adj[off[v]:off[v]+rowLen[v]])
		}
	}
	return newOff, adj[:newOff[n]]
}

// dedupRow removes adjacent duplicates from a sorted row in place and
// returns the deduplicated length.
func dedupRow(row []VID) int {
	if len(row) == 0 {
		return 0
	}
	w := 1
	for i := 1; i < len(row); i++ {
		if row[i] != row[w-1] {
			row[w] = row[i]
			w++
		}
	}
	return w
}

// parallelRows fans fn out over contiguous row ranges.
func parallelRows(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// EdgeSink is a per-producer handle for spill-mode streaming: each
// concurrent producer holds its own sink so spill writes stay buffered
// and unsynchronized. Close flushes the sink; the StreamBuilder replays
// and deletes the files during Finish.
type EdgeSink struct {
	sb      *StreamBuilder
	f       *os.File
	bw      *bufio.Writer
	written int64
	scratch [8]byte
}

// NewSink registers a new producer sink. In replay mode (no SpillDir)
// the sink simply forwards to AddEdge.
func (sb *StreamBuilder) NewSink() (*EdgeSink, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.newSinkLocked()
}

func (sb *StreamBuilder) newSinkLocked() (*EdgeSink, error) {
	s := &EdgeSink{sb: sb}
	if sb.spillDir != "" && sb.pass == 1 {
		f, err := os.CreateTemp(sb.spillDir, "gpc-edges-*.spill")
		if err != nil {
			return nil, fmt.Errorf("graph: create spill file: %w", err)
		}
		s.f = f
		s.bw = bufio.NewWriterSize(f, 1<<16)
		sb.spills = append(sb.spills, f.Name())
	}
	sb.sinks = append(sb.sinks, s)
	return s, nil
}

// AddEdge streams one edge through this sink.
func (s *EdgeSink) AddEdge(u, v int64) {
	s.sb.addEdge(u, v, s)
}

// spill appends one validated edge to the sink's spill file.
func (s *EdgeSink) spill(u, v int64) {
	if s.bw == nil {
		return
	}
	rec := s.scratch[:]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(u))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(v))
	if _, err := s.bw.Write(rec); err != nil {
		s.sb.setErr(fmt.Errorf("graph: spill write: %w", err))
		return
	}
	s.written += int64(len(rec))
}

// Close flushes and closes the sink's spill file. Safe to call more than
// once; the builder closes any still-open sinks during Finish.
func (s *EdgeSink) Close() error {
	if s.f == nil {
		return nil
	}
	var err error
	if ferr := s.bw.Flush(); ferr != nil {
		err = fmt.Errorf("graph: spill flush: %w", ferr)
	}
	if cerr := s.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("graph: spill close: %w", cerr)
	}
	s.f, s.bw = nil, nil
	s.sb.spillBytes.Add(s.written)
	s.written = 0
	return err
}

// closeSinks flushes every registered sink, returning the first error.
func (sb *StreamBuilder) closeSinks() error {
	sb.mu.Lock()
	sinks := sb.sinks
	sb.sinks = nil
	sb.defaultSink = nil
	sb.mu.Unlock()
	var first error
	for _, s := range sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// replaySpills streams every spill file back through the pass-2 fill,
// one worker per file up to the configured bound.
func (sb *StreamBuilder) replaySpills() {
	workers := sb.workers
	if workers > len(sb.spills) {
		workers = len(sb.spills)
	}
	if workers <= 1 {
		for _, path := range sb.spills {
			sb.replayOne(path)
		}
		return
	}
	paths := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range paths {
				sb.replayOne(path)
			}
		}()
	}
	for _, path := range sb.spills {
		paths <- path
	}
	close(paths)
	wg.Wait()
}

// replayOne feeds one spill file's edges into pass 2.
func (sb *StreamBuilder) replayOne(path string) {
	f, err := os.Open(path)
	if err != nil {
		sb.setErr(fmt.Errorf("graph: reopen spill: %w", err))
		return
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var rec [8]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			if err != io.EOF {
				sb.setErr(fmt.Errorf("graph: spill read: %w", err))
			}
			return
		}
		u := int64(binary.LittleEndian.Uint32(rec[0:4]))
		v := int64(binary.LittleEndian.Uint32(rec[4:8]))
		sb.addEdge(u, v, nil)
	}
}

// cleanup removes every spill file.
func (sb *StreamBuilder) cleanup() {
	for _, path := range sb.spills {
		os.Remove(path)
	}
	sb.spills = nil
}
