package core

// Communication modelling (§4.2.2). The equations are evaluated as
// recurrences over per-node virtual finish times, which generalises the
// two-node forms printed in the paper to n nodes the same way the
// dissertation does: Twait compares when the message is "on route" from
// the sender against the receiver's own progress (Equation 3 for nearest
// neighbour, Equation 4 per tile for pipelines), and the section's
// communication cost Tσ adds the send and receive overheads (Equation 5).
//
// The recurrences mirror the executor's wire protocol exactly — same send
// ordering, same binomial reduction tree — so the only prediction error
// left is what the paper has: measurement noise and the in-core
// heuristic, not model-structure mismatch.
//
// Message costs are precomputed per section in NewModel (secNet) and the
// reduction/broadcast trees are compiled to edge lists once; the chaining
// here replays them in the executor's order, so the refactor changes no
// floating-point expression or evaluation order.

// computeActive refreshes m.active with the ranks holding non-zero work,
// in rank order. Nodes with empty blocks take no part in boundary or
// pipeline traffic (they have no boundary to exchange) but do join
// reductions. The active set depends only on d, so chain's callers
// compute it once per candidate; nearestNeighbor and pipeline read it.
// When every rank has work — the common case in tuned searches — the set
// is the identity, so m.active aliases the shared read-only allRanks
// table and the scan performs no writes; partial sets are rebuilt in the
// model-owned activeBuf (never in allRanks' backing).
//
//mheta:units elems d
func (m *Model) computeActive(d []int) {
	for _, w := range d {
		if w <= 0 {
			act := m.activeBuf[:0]
			for p, w := range d {
				if w > 0 {
					act = append(act, p)
				}
			}
			m.activeBuf = act
			m.active = act
			return
		}
	}
	m.active = m.allRanks[:len(d)]
}

// nearestNeighbor advances m.clock past a nearest-neighbour exchange:
// every active node sends its boundary to its left then right active
// neighbour, then receives from left then right (the executor's order).
// The max(0, ...) of Equation 3 appears as the max between a node's own
// send-completion time and the incoming message's arrival. Requires
// m.active to be current (computeActive).
//
//mheta:units seconds busy
//mheta:units elems d
func (m *Model) nearestNeighbor(sn *secNet, busy []float64, d []int) {
	clock, sendDone, curTile := m.clock, m.sendDone, m.curTile
	os := sn.msgSend   //mheta:units seconds
	or := sn.msgRecv   //mheta:units seconds
	wire := sn.msgWire //mheta:units seconds

	if n := len(d); len(m.active) == n && n > 0 {
		// Every rank active — the common case in tuned searches — so the
		// active index IS the rank and the indirection drops out. The two
		// passes fuse into one: rank i's receive needs only its left
		// neighbour's send-to-right time (prevSdr, from the previous step)
		// and its right neighbour's send-to-left time (nsdl, computed one
		// step ahead from the not-yet-overwritten clock[i+1]). The head,
		// the rank before the tail and the tail are peeled so the interior
		// loop carries no edge-of-chain branches. Every floating-point
		// expression and its internal order is identical to the generic
		// two-pass path below; only independent values are computed in a
		// different interleaving, so results are bit-equal.
		clock = clock[:n]
		busy = busy[:n]
		if n == 1 {
			clock[0] += busy[0] // no neighbours: no sends, no receives
			return
		}
		// Pass-1 values for rank 0: send-to-left == base (no left), then
		// one send to the right.
		sdr := clock[0] + busy[0] + os
		prevSdr := 0.0
		{ // rank 0: receives only from the right
			nsdl := clock[1] + busy[1] + os
			nsdr := nsdl
			if n > 2 {
				nsdr += os
			}
			t := sdr
			if arrival := nsdl + wire; arrival > t {
				t = arrival
			}
			clock[0] = t + or
			prevSdr, sdr = sdr, nsdr
		}
		for i := 1; i < n-2; i++ { // interior: both neighbours interior-ward
			nsdl := clock[i+1] + busy[i+1] + os
			nsdr := nsdl + os
			t := sdr
			if arrival := prevSdr + wire; arrival > t {
				t = arrival
			}
			t += or
			if arrival := nsdl + wire; arrival > t {
				t = arrival
			}
			clock[i] = t + or
			prevSdr, sdr = sdr, nsdr
		}
		if n > 2 { // rank n-2: its right neighbour is the tail (no further send)
			nsdl := clock[n-1] + busy[n-1] + os
			t := sdr
			if arrival := prevSdr + wire; arrival > t {
				t = arrival
			}
			t += or
			if arrival := nsdl + wire; arrival > t {
				t = arrival
			}
			clock[n-2] = t + or
			prevSdr, sdr = sdr, nsdl
		}
		t := sdr // tail: receives only from the left
		if arrival := prevSdr + wire; arrival > t {
			t = arrival
		}
		clock[n-1] = t + or
		return
	}

	act := m.active
	// Pass 1: when each node's sends complete. sendDone[i*2] would be
	// overkill; we need "send to left done" and "send to right done" per
	// active index. Reuse scratch: sendDone holds send-to-left, curTile
	// holds send-to-right completion times (indexed by active position).
	for i, p := range act {
		t := clock[p] + busy[p]
		if i > 0 {
			t += os
		}
		sendDone[i] = t // after send to left (== base when no left)
		if i < len(act)-1 {
			t += os
		}
		curTile[i] = t // after send to right (== after-left when no right)
	}
	// Pass 2: receives. A node's receive from the left matches its left
	// neighbour's send *to the right* and vice versa.
	for i, p := range act {
		t := curTile[i]
		if i > 0 {
			arrival := curTile[i-1] + wire // left neighbour's send-to-right
			if arrival > t {
				t = arrival // Twait > 0: blocked, Equation 3
			}
			t += or
		}
		if i < len(act)-1 {
			arrival := sendDone[i+1] + wire // right neighbour's send-to-left
			if arrival > t {
				t = arrival
			}
			t += or
		}
		clock[p] = t
	}
	// Inactive nodes: no stages, no communication.
}

// pipeline advances m.clock past a pipelined section (Equation 4): the
// chain of active nodes processes Tiles tiles; node i receives tile k's
// boundary from node i−1, processes its share (busy/Tiles — every tile
// covers the same rows over a 1/Tiles column strip), and forwards to node
// i+1. The head never blocks; downstream waits are the recursive Twait of
// Equation 4, realised as max(own progress, upstream arrival). Requires
// m.active to be current (computeActive).
//
//mheta:units blocks tiles
//mheta:units seconds busy
//mheta:units elems d
func (m *Model) pipeline(sn *secNet, tiles int, busy []float64, d []int) {
	act := m.active
	if len(act) == 0 {
		return
	}
	os := sn.msgSend   //mheta:units seconds
	or := sn.msgRecv   //mheta:units seconds
	wire := sn.msgWire //mheta:units seconds

	// prevTile[k] holds the upstream node's send-completion time for tile
	// k; curTile[k] is being filled for the current node.
	if len(m.prevTile) < tiles {
		m.prevTile = make([]float64, tiles)
		m.curTile = make([]float64, tiles)
	}
	for i, p := range act {
		busyTile := busy[p] / float64(tiles)
		t := m.clock[p]
		for k := 0; k < tiles; k++ {
			if i > 0 {
				arrival := m.prevTile[k] + wire
				if arrival > t {
					t = arrival // Twait(p,m,k) > 0
				}
				t += or
			}
			t += busyTile
			if i < len(act)-1 {
				t += os
				m.curTile[k] = t
			}
		}
		m.clock[p] = t
		m.prevTile, m.curTile = m.curTile, m.prevTile
	}
}

// reduceTree advances m.clock past a binomial-tree reduction rooted at
// rank 0, optionally followed by the broadcast that makes it an
// all-reduce. This stands in for the dissertation's reduction equations:
// each tree edge costs os on the sender, wire in flight, and or on the
// receiver, entered at whatever time each node reaches the reduction.
//
// The trees are replayed from the edge lists compiled in NewModel. For
// the reduce phase this is exact: edges are grouped by ascending level;
// within a level every rank sends at most once (at its lowbit level), the
// sender and receiver sets are disjoint, and each receiver reads only its
// own sender's clock — so the fused per-edge kernel observes the same
// values as the executor's two-pass sweep. The broadcast edge list is the
// executor's literal nested loop order, so replaying it sequentially (the
// sender's clock accumulating os per child) is the original computation.
func (m *Model) reduceTree(sn *secNet, allreduce bool) {
	clock := m.clock
	os := sn.redSend   //mheta:units seconds
	or := sn.redRecv   //mheta:units seconds
	wire := sn.redWire //mheta:units seconds

	edges := m.reduceEdges
	if allreduce {
		// reduce+broadcast concatenated: one loop, same edges, same order.
		edges = m.allredEdges
	}
	for _, e := range edges {
		cf := clock[e.from] + os
		clock[e.from] = cf
		a := cf + wire
		ct := clock[e.to]
		if a > ct {
			ct = a
		}
		clock[e.to] = ct + or
	}
}

// jacobi8 runs two model iterations of the paper's two-section iterative
// shape — nearest-neighbour exchange then binomial all-reduce — over
// eight all-active ranks, keeping the clock vector in registers from the
// zeroed start through both iterations. It returns the first-iteration
// makespan t1 and the two-iteration cumulative makespan t2, the inputs of
// the delta evaluator's steady-state extrapolation. Every floating-point
// expression matches the nearestNeighbor (all-active fused path) and
// reduceTree sequence chain() would run — the fusion removes only the
// clock[] stores, reloads and zeroing between sections and iterations,
// never arithmetic — so results are bit-identical (DESIGN.md §5.12).
//
//mheta:units seconds busy0
//mheta:units seconds busy1
//mheta:units seconds return
func jacobi8(busy0, busy1 []float64, sn0, sn1 *secNet) (float64, float64) {
	c0, c1, c2, c3, c4, c5, c6, c7, t1 := jacobi8Iter(0, 0, 0, 0, 0, 0, 0, 0, busy0, busy1, sn0, sn1)
	_, _, _, _, _, _, _, _, t2 := jacobi8Iter(c0, c1, c2, c3, c4, c5, c6, c7, busy0, busy1, sn0, sn1)
	return t1, t2
}

// jacobi8Iter advances the register-resident clocks c0..c7 through one
// [nearest-neighbour, all-reduce] iteration and returns the new clocks
// plus the post-reduction makespan. The bodies are nearestNeighbor's
// all-active fused loop unrolled over eight ranks (each rank's busy term
// folded into its send base; send-to-left/right completions named
// locals) and the reduceTree replay of compileTreeEdges(8) — reduce edges
// (1→0)(3→2)(5→4)(7→6)(2→0)(6→4)(4→0), then broadcast edges
// (0→4)(0→2)(0→1)(2→3)(4→6)(4→5)(6→7) — with the clock array replaced by
// the parameter registers. The makespan is taken rank-ascending with the
// same strict-greater compare as chain's.
//
//mheta:units seconds c0
//mheta:units seconds c1
//mheta:units seconds c2
//mheta:units seconds c3
//mheta:units seconds c4
//mheta:units seconds c5
//mheta:units seconds c6
//mheta:units seconds c7
//mheta:units seconds busy0
//mheta:units seconds busy1
//mheta:units seconds return
func jacobi8Iter(c0, c1, c2, c3, c4, c5, c6, c7 float64, busy0, busy1 []float64, sn0, sn1 *secNet) (float64, float64, float64, float64, float64, float64, float64, float64, float64) {
	os := sn0.msgSend   //mheta:units seconds
	or := sn0.msgRecv   //mheta:units seconds
	wire := sn0.msgWire //mheta:units seconds
	_, _ = busy0[7], busy1[7]
	// Nearest-neighbour section: pass-1 send completions…
	sdr0 := c0 + busy0[0] + os
	sdl1 := c1 + busy0[1] + os
	sdl2 := c2 + busy0[2] + os
	sdl3 := c3 + busy0[3] + os
	sdl4 := c4 + busy0[4] + os
	sdl5 := c5 + busy0[5] + os
	sdl6 := c6 + busy0[6] + os
	sdl7 := c7 + busy0[7] + os
	sdr1 := sdl1 + os
	sdr2 := sdl2 + os
	sdr3 := sdl3 + os
	sdr4 := sdl4 + os
	sdr5 := sdl5 + os
	sdr6 := sdl6 + os
	// …pass-2 receives.
	t := sdr0
	if a := sdl1 + wire; a > t {
		t = a
	}
	c0 = t + or
	t = sdr1
	if a := sdr0 + wire; a > t {
		t = a
	}
	t += or
	if a := sdl2 + wire; a > t {
		t = a
	}
	c1 = t + or
	t = sdr2
	if a := sdr1 + wire; a > t {
		t = a
	}
	t += or
	if a := sdl3 + wire; a > t {
		t = a
	}
	c2 = t + or
	t = sdr3
	if a := sdr2 + wire; a > t {
		t = a
	}
	t += or
	if a := sdl4 + wire; a > t {
		t = a
	}
	c3 = t + or
	t = sdr4
	if a := sdr3 + wire; a > t {
		t = a
	}
	t += or
	if a := sdl5 + wire; a > t {
		t = a
	}
	c4 = t + or
	t = sdr5
	if a := sdr4 + wire; a > t {
		t = a
	}
	t += or
	if a := sdl6 + wire; a > t {
		t = a
	}
	c5 = t + or
	t = sdr6
	if a := sdr5 + wire; a > t {
		t = a
	}
	t += or
	if a := sdl7 + wire; a > t {
		t = a
	}
	c6 = t + or
	t = sdl7
	if a := sdr6 + wire; a > t {
		t = a
	}
	c7 = t + or
	// All-reduce section: busy prologue, reduce, broadcast.
	os = sn1.redSend
	or = sn1.redRecv
	wire = sn1.redWire
	c0 += busy1[0]
	c1 += busy1[1]
	c2 += busy1[2]
	c3 += busy1[3]
	c4 += busy1[4]
	c5 += busy1[5]
	c6 += busy1[6]
	c7 += busy1[7]
	// Reduce, level 1.
	c1 += os
	if a := c1 + wire; a > c0 {
		c0 = a
	}
	c0 += or
	c3 += os
	if a := c3 + wire; a > c2 {
		c2 = a
	}
	c2 += or
	c5 += os
	if a := c5 + wire; a > c4 {
		c4 = a
	}
	c4 += or
	c7 += os
	if a := c7 + wire; a > c6 {
		c6 = a
	}
	c6 += or
	// Reduce, level 2.
	c2 += os
	if a := c2 + wire; a > c0 {
		c0 = a
	}
	c0 += or
	c6 += os
	if a := c6 + wire; a > c4 {
		c4 = a
	}
	c4 += or
	// Reduce, level 3.
	c4 += os
	if a := c4 + wire; a > c0 {
		c0 = a
	}
	c0 += or
	// Broadcast.
	c0 += os
	if a := c0 + wire; a > c4 {
		c4 = a
	}
	c4 += or
	c0 += os
	if a := c0 + wire; a > c2 {
		c2 = a
	}
	c2 += or
	c0 += os
	if a := c0 + wire; a > c1 {
		c1 = a
	}
	c1 += or
	c2 += os
	if a := c2 + wire; a > c3 {
		c3 = a
	}
	c3 += or
	c4 += os
	if a := c4 + wire; a > c6 {
		c6 = a
	}
	c6 += or
	c4 += os
	if a := c4 + wire; a > c5 {
		c5 = a
	}
	c5 += or
	c6 += os
	if a := c6 + wire; a > c7 {
		c7 = a
	}
	c7 += or
	mk := 0.0
	if c0 > mk {
		mk = c0
	}
	if c1 > mk {
		mk = c1
	}
	if c2 > mk {
		mk = c2
	}
	if c3 > mk {
		mk = c3
	}
	if c4 > mk {
		mk = c4
	}
	if c5 > mk {
		mk = c5
	}
	if c6 > mk {
		mk = c6
	}
	if c7 > mk {
		mk = c7
	}
	return c0, c1, c2, c3, c4, c5, c6, c7, mk
}

func lowbit(x int) int { return x & (-x) }
