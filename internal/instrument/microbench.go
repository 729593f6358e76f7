// Package instrument automates MHETA's parameter acquisition (§4.1):
// micro-benchmarks for the communication and disk constants, and the
// instrumented iteration — run under the base (Blk) distribution with
// MPI-Jack hooks attached, forced I/O, and the Figure 5 prefetch
// transform — from which the per-stage computation rates and per-variable
// I/O latencies are extracted.
package instrument

import (
	"encoding/binary"
	"fmt"
	"math"

	"mheta/internal/core"
	"mheta/internal/mpi"
	"mheta/internal/vclock"
)

// Benchmark sizes: two points determine the fixed and per-byte parts of
// each linear cost. Chosen far apart so the slope estimate is stable
// under ±2% noise.
const (
	netSizeSmall  = 512
	netSizeLarge  = 1 << 16
	diskSizeSmall = 4096
	diskSizeLarge = 1 << 18
)

// linfit solves f(s) = a + b·s from two averaged samples, clamping both
// coefficients at zero (noise can produce slightly negative intercepts).
func linfit(s1, f1, s2, f2 float64) (a, b float64) {
	b = (f2 - f1) / (s2 - s1)
	a = f1 - b*s1
	if b < 0 {
		b = 0
	}
	if a < 0 {
		a = 0
	}
	return a, b
}

func stamp(v float64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
	return b
}

func unstamp(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// recvProbe is a minimal profiler capturing the last receive's timing.
type recvProbe struct {
	start vclock.Time
	end   vclock.Time
	wait  vclock.Duration
}

func (p *recvProbe) Pre(ci *mpi.CallInfo) {}

func (p *recvProbe) Post(ci *mpi.CallInfo) {
	if ci.Kind == mpi.CallRecv {
		p.start, p.end, p.wait = ci.Start, ci.End, ci.Wait
	}
}

const tagReady, tagData, tagStamp = 7001, 7002, 7003

// netBench is one message size's timed exchange as a resumable step for
// World.Run: rank 0 and rank 1 each loop over reps, parking at their
// receives; every other rank finishes at once.
type netBench struct {
	reps    int
	payload []byte
	probe   recvProbe

	rep   [2]int      // reps completed by ranks 0 and 1
	ready mpi.RecvOp  // rank 0's receive of the ready token
	pc1   int         // rank 1 within a rep: 0 send ready, 1 await data, 2 await stamp
	recv  mpi.RecvOp  // rank 1's receive in flight
	arriv vclock.Time // rank 1: the current rep's payload arrival

	osSum, orSum, wireSum float64
}

func (b *netBench) step(r *mpi.Rank) bool {
	switch r.Rank() {
	case 0:
		for ; b.rep[0] < b.reps; b.rep[0]++ {
			if _, ok := r.TryRecv(&b.ready); !ok {
				return false
			}
			t0 := r.Now()
			r.Send(1, tagData, b.payload)
			se := r.Now()
			b.osSum += float64(se - t0)
			r.Send(1, tagStamp, stamp(float64(se)))
		}
	case 1:
		for b.rep[1] < b.reps {
			switch b.pc1 {
			case 0:
				r.Send(0, tagReady, stamp(0))
				b.recv = mpi.RecvOp{Src: 0, Tag: tagData}
				b.pc1 = 1
			case 1:
				if _, ok := r.TryRecv(&b.recv); !ok {
					return false
				}
				b.arriv = b.probe.start + vclock.Time(b.probe.wait)
				b.orSum += float64(b.probe.end - b.arriv)
				b.recv = mpi.RecvOp{Src: 0, Tag: tagStamp}
				b.pc1 = 2
			case 2:
				data, ok := r.TryRecv(&b.recv)
				if !ok {
					return false
				}
				b.wireSum += float64(b.arriv) - unstamp(data)
				b.pc1 = 0
				b.rep[1]++
			}
		}
	}
	return true
}

// MicroBenchNet measures the network constants with timed exchanges
// between ranks 0 and 1 ("We use microbenchmarks to measure some basic
// communication costs, such as send and receive overheads and send
// latency per byte between nodes", §4.1). reps samples per size are
// averaged to smooth perturbation noise.
//
// Protocol per (size, rep): rank 1 sends a "ready" token and immediately
// posts its receive, guaranteeing it blocks; rank 0 consumes the token,
// sends the timed payload, and follows with a tiny message carrying the
// virtual timestamp at which the payload's send completed. On rank 1 the
// PMPI probe yields the receive's start, wait and end, from which the
// arrival time, the receive overhead or(m), and — against the sender's
// timestamp — the wire time all follow. The send overhead os(m) is timed
// directly on rank 0. A world of fewer than two ranks has no network to
// measure and is an error.
func MicroBenchNet(w *mpi.World, reps int) (core.NetParams, error) {
	if w.Size() < 2 {
		return core.NetParams{}, fmt.Errorf("instrument: the network micro-benchmark needs 2 ranks, the world has %d", w.Size())
	}
	if reps < 1 {
		reps = 1
	}
	type avg struct{ os, or, wire float64 }
	results := make(map[int]avg, 2)

	for _, size := range []int{netSizeSmall, netSizeLarge} {
		b := &netBench{reps: reps, payload: make([]byte, size), ready: mpi.RecvOp{Src: 1, Tag: tagReady}}
		w.Rank(1).SetProfiler(&b.probe)
		_, err := w.Run(b.step)
		w.Rank(1).SetProfiler(nil)
		if err != nil {
			return core.NetParams{}, fmt.Errorf("instrument: network micro-benchmark: %w", err)
		}
		results[size] = avg{
			os:   b.osSum / float64(reps),
			or:   b.orSum / float64(reps),
			wire: b.wireSum / float64(reps),
		}
	}

	s1, s2 := float64(netSizeSmall), float64(netSizeLarge)
	var p core.NetParams
	p.SendFixed, p.SendPerByte = linfit(s1, results[netSizeSmall].os, s2, results[netSizeLarge].os)
	p.RecvFixed, p.RecvPerByte = linfit(s1, results[netSizeSmall].or, s2, results[netSizeLarge].or)
	p.WireFixed, p.WirePerByte = linfit(s1, results[netSizeSmall].wire, s2, results[netSizeLarge].wire)
	return p, nil
}

// MicroBenchDisk measures each node's seek overheads Or and Ow — "they
// are measured and output as node-specific data" (§4.1.1) — and the
// prefetch issue overhead To, using timed reads and writes of a scratch
// extent at two sizes. It sends no messages, so it runs rank by rank.
// Reads go to the disk directly: the benchmark world has no profiler for
// FileRead's hooks to call. Each read's view is written straight back.
func MicroBenchDisk(w *mpi.World, reps int) []core.DiskCal {
	if reps < 1 {
		reps = 1
	}
	cals := make([]core.DiskCal, w.Size())
	for p := range cals {
		r := w.Rank(p)
		const scratch = "__mheta_scratch__"
		r.Disk().Create(scratch, diskSizeLarge)
		readAvg := make(map[int]float64, 2)
		writeAvg := make(map[int]float64, 2)
		for _, size := range []int{diskSizeSmall, diskSizeLarge} {
			var rSum, wSum float64
			for rep := 0; rep < reps; rep++ {
				t0 := r.Now()
				buf, _ := r.Disk().Read(r.Clock(), scratch, 0, size)
				rSum += float64(r.Now() - t0)
				t1 := r.Now()
				r.FileWrite(scratch, 0, buf)
				wSum += float64(r.Now() - t1)
			}
			readAvg[size] = rSum / float64(reps)
			writeAvg[size] = wSum / float64(reps)
		}
		var issueSum float64
		for rep := 0; rep < reps; rep++ {
			t0 := r.Now()
			tag := r.FilePrefetchIssue(scratch, 0, diskSizeSmall)
			issueSum += float64(r.Now() - t0)
			r.FilePrefetchWait(scratch, tag)
		}
		s1, s2 := float64(diskSizeSmall), float64(diskSizeLarge)
		var c core.DiskCal
		c.ReadSeek, _ = linfit(s1, readAvg[diskSizeSmall], s2, readAvg[diskSizeLarge])
		c.WriteSeek, _ = linfit(s1, writeAvg[diskSizeSmall], s2, writeAvg[diskSizeLarge])
		c.IssueCost = issueSum / float64(reps)
		cals[p] = c
	}
	return cals
}
