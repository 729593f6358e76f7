package exec

import (
	"mheta/internal/memsim"
	"mheta/internal/program"
	"mheta/internal/vclock"
)

// Communication tags: one namespace per section, disjoint from the
// barrier tag used in Run and from the collectives' reserved space.
func sectionTag(sec int) int { return 1 + sec<<4 }

// runTiles executes the section's stage work (non-pipelined sections have
// exactly one tile).
func (nc *NodeCtx) runTiles(si int, s *program.Section) {
	if nc.Count == 0 {
		return
	}
	for k := 0; k < s.Tiles; k++ {
		if nc.jack != nil {
			nc.jack.EnterTile(k)
		}
		for sti := range s.Stages {
			nc.runStage(si, sti, k, s)
		}
	}
}

// runStage executes one stage within one tile: the ICLA loop over the
// streamed variable (synchronous, Figure 1 bottom; or prefetching,
// Figure 6), or a single in-memory pass when everything is in core.
func (nc *NodeCtx) runStage(si, sti, tile int, s *program.Section) {
	st := &s.Stages[sti]
	jack, rec := nc.jack, nc.rec
	var spanStart vclock.Time
	if jack != nil {
		jack.EnterStage(sti)
		spanStart = nc.R.Now()
	}

	v := nc.streamVar(st)
	if v == nil {
		// No streamed variable: pure in-memory computation over the
		// tile's rows.
		work := nc.state.Process(nc, si, sti, tile, nc.Start, nc.Count, nil)
		nc.compute(work)
	} else {
		layout := nc.plan[v.Name]
		if layout.InCore {
			buf := nc.inCoreTile(v, s.Tiles, tile)
			work := nc.state.Process(nc, si, sti, tile, nc.Start, nc.Count, buf)
			nc.compute(work)
		} else if st.Prefetch {
			nc.runChunksPrefetch(si, sti, tile, s, v, layout)
		} else {
			nc.runChunksSync(si, sti, tile, s, v, layout)
		}
	}

	if jack != nil {
		rec.RecordStageSpan(si, tile, sti, nc.R.Clock().Since(spanStart))
		jack.LeaveStage()
	}
}

// streamVar resolves the stage's streamed distributed variable, nil when
// the stage only touches in-core or replicated data. It points into
// Prog.Variables rather than copying, and panics on an unknown name.
func (nc *NodeCtx) streamVar(st *program.Stage) *program.Variable {
	for _, u := range st.Uses {
		v, err := nc.Prog.VarRef(u.Name)
		if err != nil {
			panic(err)
		}
		if v.Distributed {
			return v
		}
	}
	return nil
}

// inCoreTile returns the in-memory slice for tile k of an in-core
// variable. Local arrays are laid out tile-major so each tile's strip is
// contiguous, both on disk and in memory.
func (nc *NodeCtx) inCoreTile(v *program.Variable, tiles, k int) []byte {
	buf := nc.InCore[v.Name]
	if tiles == 1 {
		return buf
	}
	strip := v.ElemBytes / int64(tiles)
	tileBytes := strip * int64(nc.Count)
	return buf[int64(k)*tileBytes : int64(k+1)*tileBytes]
}

// chunkGeom is the stage's chunking for one tile.
type chunkGeom struct {
	stream     memsim.Stream
	tileOffset int64 // byte offset of tile k's strip block on disk
	count      int   // the node's row count
}

func (nc *NodeCtx) chunkGeom(v *program.Variable, tiles, k int, layout memsim.Layout) chunkGeom {
	stream := memsim.StreamPlan(nc.Count, v.ElemBytes, layout.ICLABytes, tiles)
	return chunkGeom{
		stream:     stream,
		tileOffset: int64(k) * stream.StripBytes * int64(nc.Count),
		count:      nc.Count,
	}
}

// chunk returns chunk c's first row, row count, and disk byte offset and
// length.
func (g chunkGeom) chunk(c int) (rowStart, rows int, off, bytes int) {
	rowStart = c * g.stream.ChunkElems
	rows = min(g.stream.ChunkElems, g.count-rowStart)
	off = int(g.tileOffset + int64(rowStart)*g.stream.StripBytes)
	return rowStart, rows, off, int(int64(rows) * g.stream.StripBytes)
}

// runChunksSync is the original ICLA loop (Figure 6 left): read a chunk,
// process it, write it back.
func (nc *NodeCtx) runChunksSync(si, sti, tile int, s *program.Section, v *program.Variable, layout memsim.Layout) {
	g := nc.chunkGeom(v, s.Tiles, tile, layout)
	for c := 0; c < g.stream.ChunksPerTile; c++ {
		rowStart, rows, off, bytes := g.chunk(c)
		buf := nc.R.FileRead(v.Name, off, bytes)
		work := nc.state.Process(nc, si, sti, tile, nc.Start+rowStart, rows, buf)
		nc.compute(work)
		if !v.ReadOnly {
			nc.R.FileWrite(v.Name, off, buf)
		}
	}
}

// runChunksPrefetch is the unrolled loop of Figure 6 right: prefetch
// chunk c while processing chunk c−1, then wait and write back. The
// overlap between the in-flight read and the computation is what
// Equation 2's effective latency models. Under instrumentation (nc.rec
// set) the disk is in its Figure 5 mode — issues block, waits are no-ops
// — and the loop also measures the overlap computation Tov between each
// issue's return and the corresponding wait, attributing it per element.
// Reading the clock does not advance it, so both modes run the same ops.
func (nc *NodeCtx) runChunksPrefetch(si, sti, tile int, s *program.Section, v *program.Variable, layout memsim.Layout) {
	g := nc.chunkGeom(v, s.Tiles, tile, layout)
	prevRowStart, prevRows, prevOff, bytes := g.chunk(0)
	prev := nc.R.FileRead(v.Name, prevOff, bytes)
	for c := 1; c < g.stream.ChunksPerTile; c++ {
		rowStart, rows, off, bytes := g.chunk(c)
		tag := nc.R.FilePrefetchIssue(v.Name, off, bytes)
		t0 := nc.R.Now()
		work := nc.state.Process(nc, si, sti, tile, nc.Start+prevRowStart, prevRows, prev)
		nc.compute(work)
		if nc.rec != nil {
			nc.rec.RecordOverlap(si, tile, sti, v.Name, nc.R.Clock().Since(t0), prevRows)
		}
		cur := nc.R.FilePrefetchWait(v.Name, tag)
		if !v.ReadOnly {
			nc.R.FileWrite(v.Name, prevOff, prev)
		}
		prev, prevOff, prevRows, prevRowStart = cur, off, rows, rowStart
	}
	work := nc.state.Process(nc, si, sti, tile, nc.Start+prevRowStart, prevRows, prev)
	nc.compute(work)
	if !v.ReadOnly {
		nc.R.FileWrite(v.Name, prevOff, prev)
	}
}

// compute charges work units to the virtual clock, scaled by the current
// iteration's weight (nonuniform-iteration support, §3.1). The
// instrumented iteration is iteration 0, so extracted rates are in
// weight-0 units and the model rescales per iteration.
func (nc *NodeCtx) compute(work float64) {
	nc.R.Compute(work*nc.Prog.IterWeight(nc.Iter), nc.Prog.WorkUnitCost)
}
