package instrument

import (
	"fmt"
	"sort"

	"mheta/internal/cluster"
	"mheta/internal/core"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/mpijack"
	"mheta/internal/program"
	"mheta/internal/vclock"
)

// Collect produces a complete MHETA parameter set for app on the given
// cluster: it micro-benchmarks the network and disks, runs the single
// instrumented iteration under baseDist (the paper instruments under
// Blk), and extracts the per-stage computation rates and per-variable I/O
// latencies from the recorders. seed/noiseAmp configure the emulated
// worlds — the instrumented world is constructed with a different seed
// stream than the measured runs, which is what produces the paper's
// "perturbations introduced when running the instrumented iteration".
func Collect(spec cluster.Spec, app *exec.App, baseDist dist.Distribution, seed uint64, noiseAmp float64) (core.Params, error) {
	if err := app.Prog.Validate(); err != nil {
		return core.Params{}, err
	}
	// Micro-benchmarks on a dedicated world (the paper runs them once per
	// cluster and stores the results).
	mbw := mpi.NewWorld(spec, seed^0xA5A5A5A5, noiseAmp)
	net, err := MicroBenchNet(mbw, 24)
	if err != nil {
		return core.Params{}, err
	}
	disks := MicroBenchDisk(mbw, 24)

	// The instrumented iteration.
	iw := mpi.NewWorld(spec, seed^0x5A5A5A5A, noiseAmp)
	res, err := exec.Run(iw, app, baseDist, exec.Options{Mode: exec.ModeInstrument})
	if err != nil {
		return core.Params{}, fmt.Errorf("instrument: instrumented iteration: %w", err)
	}
	return Extract(spec, app.Prog, baseDist, net, disks, res.Recorders)
}

// Extract assembles core.Params from the measured pieces. Exposed
// separately from Collect so tests can feed synthetic recorders.
func Extract(spec cluster.Spec, prog *program.Program, baseDist dist.Distribution,
	net core.NetParams, disks []core.DiskCal, recs []*mpijack.Recorder) (core.Params, error) {

	n := spec.N()
	p := core.Params{
		Program:     prog.Name,
		Nodes:       n,
		Iterations:  prog.Iterations,
		MemoryBytes: make([]int64, n),
		Disk:        disks,
		Net:         net,
		BaseDist:    append([]int(nil), baseDist...),
		IterWeights: append([]float64(nil), prog.IterWeights...),
		SharedDisk:  spec.SharedDisk,
	}
	// The instrumented run of a shared-disk cluster measured I/O under
	// contention (forced streaming on every active node); divide that
	// factor out so the stored latencies are contention-free and the
	// model can apply the candidate distribution's own factor.
	kInstr := 1.0 //mheta:units ratio
	if spec.SharedDisk {
		kInstr = exec.SharedDiskContention(spec, prog, baseDist, true)
	}
	for i, node := range spec.Nodes {
		p.MemoryBytes[i] = node.MemoryBytes
	}
	for _, v := range prog.DistributedVars() {
		p.DistVars = append(p.DistVars, core.DistVar{Name: v.Name, ElemBytes: v.ElemBytes, ReadOnly: v.ReadOnly})
	}

	for si, s := range prog.Sections {
		sp := core.SectionParams{
			Name:        s.Name,
			Tiles:       s.Tiles,
			Comm:        s.Comm,
			MsgBytes:    s.MsgBytesPerNeighbor,
			ReduceBytes: s.ReduceBytes,
		}
		// Prefer measured message sizes when the recorders saw traffic
		// (§4.1.2: participants and parameters come from the intercepted
		// calls themselves).
		var sendBytes, sends, redBytes, reds int64
		for _, rec := range recs {
			if rec == nil {
				continue
			}
			for key, c := range rec.Comm {
				if key[0] != si {
					continue
				}
				sendBytes += c.SendBytes
				sends += int64(c.Sends)
				redBytes += c.ReduceBytes
				reds += int64(c.Reductions)
			}
		}
		if sends > 0 {
			sp.MsgBytes = sendBytes / sends
		}
		if reds > 0 {
			sp.ReduceBytes = redBytes / reds
		}

		for sti, st := range s.Stages {
			stp := core.StageParams{
				Name:           st.Name,
				Prefetch:       st.Prefetch,
				ComputePerElem: make([]float64, n),
			}
			var sv *program.Variable
			for _, u := range st.Uses {
				v := prog.MustVar(u.Name)
				if v.Distributed {
					vv := v
					sv = &vv
					break
				}
			}
			if sv != nil {
				stp.StreamVar = sv.Name
				stp.ElemBytes = sv.ElemBytes
				stp.ReadOnly = sv.ReadOnly
				stp.ReadPerByte = make([]float64, n)
				stp.WritePerByte = make([]float64, n)
			}
			if st.Prefetch {
				stp.OverlapPerElem = make([]float64, n)
			}

			for rank := 0; rank < n; rank++ {
				rec := recs[rank]
				if rec == nil || baseDist[rank] == 0 {
					continue
				}
				// Stage span summed over tiles, in tile order: float
				// accumulation is not associative, so iterating the map
				// directly would make the extracted rates depend on Go's
				// randomized map order and differ in the last ULPs from run
				// to run.
				var span float64
				for _, key := range spanKeys(rec.StageSpans, si, sti) {
					span += rec.StageSpans[key].Seconds()
				}
				// Stage I/O summed over tiles and variables.
				var ioTime float64
				var readCalls, writeCalls int
				var readBytes, writeBytes int64
				var readTime, writeTime float64
				var ovTime float64
				var ovElems int64
				// Same ordering discipline as the spans: the I/O times are
				// floats, so sum them in sorted key order.
				for _, key := range ioKeys(rec.IO, si, sti) {
					io := rec.IO[key]
					ioTime += io.ReadTime.Seconds() + io.WriteTime.Seconds()
					readCalls += io.ReadCalls
					writeCalls += io.WriteCalls
					readBytes += io.ReadBytes
					writeBytes += io.WriteBytes
					readTime += io.ReadTime.Seconds()
					writeTime += io.WriteTime.Seconds()
					ovTime += io.OverlapCompute.Seconds()
					ovElems += io.OverlapElems
				}
				// Computation = stage span − stage I/O (§4.1.1), per
				// element of the instrumented distribution.
				comp := span - ioTime
				if comp < 0 {
					comp = 0
				}
				stp.ComputePerElem[rank] = comp / float64(baseDist[rank])

				if sv != nil && readBytes > 0 {
					// lr(v) = (ΣTread − NR·Or·k) / bytes / k, net of the
					// node-specific seek overhead (§4.1.1) and the
					// shared-disk contention of the instrumented run.
					lr := (readTime - float64(readCalls)*disks[rank].ReadSeek*kInstr) / float64(readBytes) / kInstr
					if lr < 0 {
						lr = 0
					}
					stp.ReadPerByte[rank] = lr
				}
				if sv != nil && writeBytes > 0 {
					lw := (writeTime - float64(writeCalls)*disks[rank].WriteSeek*kInstr) / float64(writeBytes) / kInstr
					if lw < 0 {
						lw = 0
					}
					stp.WritePerByte[rank] = lw
				}
				if st.Prefetch && ovElems > 0 {
					stp.OverlapPerElem[rank] = ovTime / float64(ovElems)
				}
			}
			fillGaps(spec, baseDist, stp.ComputePerElem, true)
			if sv != nil {
				fillGaps(spec, baseDist, stp.ReadPerByte, false)
				fillGaps(spec, baseDist, stp.WritePerByte, false)
			}
			if st.Prefetch {
				fillGaps(spec, baseDist, stp.OverlapPerElem, true)
			}
			sp.Stages = append(sp.Stages, stp)
		}
		p.Sections = append(p.Sections, sp)
	}
	if err := p.Validate(); err != nil {
		return core.Params{}, fmt.Errorf("instrument: extracted params invalid: %w", err)
	}
	return p, nil
}

// fillGaps estimates values for nodes that had no work (and therefore no
// measurements) in the instrumented run, scaling a measured node's value
// by relative CPU power for compute-like quantities and copying directly
// for I/O latencies. With a Blk base distribution every node has work, so
// this is a safety net for unusual base distributions.
func fillGaps(spec cluster.Spec, baseDist dist.Distribution, vals []float64, cpuScaled bool) {
	if vals == nil {
		return
	}
	donor := -1
	for i, v := range vals {
		if baseDist[i] > 0 && v > 0 {
			donor = i
			break
		}
	}
	if donor == -1 {
		return
	}
	for i := range vals {
		if baseDist[i] != 0 {
			continue
		}
		if cpuScaled {
			vals[i] = vals[donor] * spec.Nodes[donor].CPUPower / spec.Nodes[i].CPUPower
		} else {
			vals[i] = vals[donor]
		}
	}
}

// spanKeys returns the StageSpans keys for (section, stage) in ascending
// tile order, so float summation over them is reproducible.
func spanKeys(spans map[[3]int]vclock.Duration, si, sti int) [][3]int {
	keys := make([][3]int, 0, len(spans))
	for key := range spans {
		if key[0] == si && key[2] == sti {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a][1] < keys[b][1] })
	return keys
}

// ioKeys returns the IO record keys for (section, stage) sorted by
// (tile, variable), for the same reproducible-summation reason.
func ioKeys(io map[mpijack.IOKey]*mpijack.IORecord, si, sti int) []mpijack.IOKey {
	keys := make([]mpijack.IOKey, 0, len(io))
	for key := range io {
		if key.Section == si && key.Stage == sti {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Tile != keys[b].Tile {
			return keys[a].Tile < keys[b].Tile
		}
		return keys[a].Var < keys[b].Var
	})
	return keys
}
