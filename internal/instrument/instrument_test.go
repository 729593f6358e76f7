package instrument_test

import (
	"math"
	"strings"
	"testing"

	"mheta/internal/apps"
	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/instrument"
	"mheta/internal/mpi"
	"mheta/internal/program"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func TestMicroBenchNetRecoversConfiguredCosts(t *testing.T) {
	spec := cluster.DC(8)
	w := mpi.NewWorld(spec, 99, 0.02)
	got, err := instrument.MicroBenchNet(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.Net

	checks := []struct {
		name      string
		got, want float64
		maxRelErr float64
	}{
		{"SendFixed", got.SendFixed, float64(want.SendOverhead), 0.10},
		{"SendPerByte", got.SendPerByte, float64(want.PerByteSend), 0.10},
		{"RecvFixed", got.RecvFixed, float64(want.RecvOverhead), 0.10},
		{"RecvPerByte", got.RecvPerByte, float64(want.PerByteRecv), 0.10},
		{"WireFixed", got.WireFixed, float64(want.Latency), 0.15},
		{"WirePerByte", got.WirePerByte, float64(want.PerByteWire), 0.10},
	}
	for _, c := range checks {
		if relErr(c.got, c.want) > c.maxRelErr {
			t.Errorf("%s: measured %v, configured %v", c.name, c.got, c.want)
		}
	}
}

func TestMicroBenchNetNoiseFreeIsExact(t *testing.T) {
	spec := cluster.DC(8)
	w := mpi.NewWorld(spec, 99, 0)
	got, err := instrument.MicroBenchNet(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(got.SendFixed, float64(spec.Net.SendOverhead)) > 1e-9 {
		t.Fatalf("noise-free SendFixed %v vs %v", got.SendFixed, spec.Net.SendOverhead)
	}
	if relErr(got.WireFixed, float64(spec.Net.Latency)) > 1e-9 {
		t.Fatalf("noise-free WireFixed %v vs %v", got.WireFixed, spec.Net.Latency)
	}
}

// TestCollectRejectsSingleNode pins the network micro-benchmark's
// precondition: a one-node cluster has no link to time, so Collect
// reports an error instead of parking rank 0 forever.
func TestCollectRejectsSingleNode(t *testing.T) {
	spec := cluster.DC(8)
	spec.Nodes = spec.Nodes[:1]
	app := apps.NewJacobi(apps.DefaultJacobiConfig())
	_, err := instrument.Collect(spec, app, dist.Block(app.Prog.GlobalElems(), 1), 1, 0)
	if err == nil || !strings.Contains(err.Error(), "needs 2 ranks") {
		t.Fatalf("Collect on one node: err = %v, want the 2-rank precondition", err)
	}
}

func TestMicroBenchDiskRecoversSeeksAndIssue(t *testing.T) {
	spec := cluster.IO(8) // nodes 0–3 have 3× slower disks
	w := mpi.NewWorld(spec, 7, 0.02)
	cals := instrument.MicroBenchDisk(w, 32)
	for i, cal := range cals {
		wantRead := float64(spec.DiskParams(i).ReadSeek)
		wantWrite := float64(spec.DiskParams(i).WriteSeek)
		if relErr(cal.ReadSeek, wantRead) > 0.10 {
			t.Errorf("node %d ReadSeek %v, want ≈%v", i, cal.ReadSeek, wantRead)
		}
		if relErr(cal.WriteSeek, wantWrite) > 0.10 {
			t.Errorf("node %d WriteSeek %v, want ≈%v", i, cal.WriteSeek, wantWrite)
		}
		if relErr(cal.IssueCost, float64(spec.DiskParams(i).IssueCost)) > 0.10 {
			t.Errorf("node %d IssueCost %v", i, cal.IssueCost)
		}
	}
	// The slow nodes' seeks must measure ≈3× the fast ones'.
	ratio := cals[0].ReadSeek / cals[7].ReadSeek
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("slow/fast seek ratio %v, want ≈3", ratio)
	}
}

func TestCollectProducesValidParams(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 512, 64, 4
	app := apps.NewJacobi(cfg)
	spec := cluster.HY1(8)
	base := dist.Block(cfg.Rows, 8)
	p, err := instrument.Collect(spec, app, base, 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Program != "jacobi" || p.Nodes != 8 || p.Iterations != cfg.Iterations {
		t.Fatalf("header %+v", p)
	}
	if len(p.Sections) != 2 {
		t.Fatalf("%d sections", len(p.Sections))
	}
	if p.Sections[0].Comm != program.CommNearestNeighbor {
		t.Fatal("section 0 comm wrong")
	}
	if p.Sections[0].MsgBytes != int64(cfg.Cols)*8 {
		t.Fatalf("measured MsgBytes %d", p.Sections[0].MsgBytes)
	}
	if p.Sections[1].ReduceBytes != 8 {
		t.Fatalf("measured ReduceBytes %d", p.Sections[1].ReduceBytes)
	}
}

func TestExtractedComputeRatesScaleWithCPUPower(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 512, 64, 4
	app := apps.NewJacobi(cfg)
	spec := cluster.DC(8) // pure CPU heterogeneity
	p, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	rates := p.Sections[0].Stages[0].ComputePerElem
	// Node 0 (power 0.5) must be ≈4× slower per element than node 7
	// (power 2.0).
	ratio := rates[0] / rates[7]
	if ratio < 3.4 || ratio > 4.6 {
		t.Fatalf("rate ratio %v, want ≈4 (powers 0.5 vs 2.0)", ratio)
	}
}

func TestExtractedIOLatenciesReflectDiskScale(t *testing.T) {
	// Large enough rows that per-byte latency dominates seek overhead;
	// with tiny arrays the lr estimate drowns in seek-measurement noise
	// (a real limitation of the paper's methodology too).
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 2048, 512, 4
	app := apps.NewJacobi(cfg)
	spec := cluster.IO(8)
	p, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Sections[0].Stages[0]
	if st.StreamVar != "B" {
		t.Fatalf("stream var %q", st.StreamVar)
	}
	// Per-byte read latency on a 3×-scaled disk ≈ 3× the baseline's.
	ratio := st.ReadPerByte[0] / st.ReadPerByte[7]
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("lr ratio %v, want ≈3", ratio)
	}
	wantLr := float64(spec.DiskParams(7).ReadPerByte)
	if relErr(st.ReadPerByte[7], wantLr) > 0.15 {
		t.Fatalf("lr %v, want ≈%v", st.ReadPerByte[7], wantLr)
	}
}

func TestExtractPrefetchOverlapRates(t *testing.T) {
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 512, 64, 4
	cfg.Prefetch = true
	app := apps.NewJacobi(cfg)
	spec := cluster.IO(8)
	p, err := instrument.Collect(spec, app, dist.Block(cfg.Rows, 8), 42, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Sections[0].Stages[0]
	if !st.Prefetch {
		t.Fatal("prefetch flag lost")
	}
	for i, ov := range st.OverlapPerElem {
		if ov <= 0 {
			t.Fatalf("node %d overlap rate %v", i, ov)
		}
		// Overlap is computation: it must be close to the compute rate.
		if relErr(ov, st.ComputePerElem[i]) > 0.3 {
			t.Fatalf("node %d overlap %v vs compute %v", i, ov, st.ComputePerElem[i])
		}
	}
}

func TestCollectRejectsInvalidProgram(t *testing.T) {
	app := &exec.App{Prog: &program.Program{Name: "bad"}}
	_, err := instrument.Collect(cluster.DC(8), app, nil, 1, 0)
	if err == nil {
		t.Fatal("invalid program accepted")
	}
}
