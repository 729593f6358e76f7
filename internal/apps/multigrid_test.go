package apps_test

import (
	"testing"

	"mheta/internal/apps"
	"mheta/internal/dist"
)

func TestMultigridMatchesReference(t *testing.T) {
	cfg := apps.DefaultMGConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 128, 16, 3
	d := dist.Block(cfg.Rows, 4)
	eb := cfg.Cols * 2 // float64 slots per combined row
	checkChunking(t, ooc3, int64(eb)*8, d[0], 1)
	// Two smooths per stage make every row's second sweep reread the
	// same row above, which the kernel's row ping-pong must preserve.
	for _, smooths := range []int{1, 2} {
		cfg.Smooths = smooths
		ref := apps.MGReference(cfg, d, cfg.Iterations)
		for _, mem := range []int64{8 << 20, 4 << 10, ooc3} { // in core and out of core
			w := runApp(t, apps.NewMultigrid(cfg), uniformSpec(4, mem), d)
			for p := 0; p < 4; p++ {
				blob := w.Rank(p).Disk().Extent("U")
				start := d.Start(p)
				for i := 0; i < d[p]; i++ {
					for j := 0; j < cfg.Cols; j++ {
						got := f64At(blob, i*eb+j)
						want := ref[start+i][j]
						if got != want {
							t.Fatalf("smooths=%d mem=%d rank %d row %d col %d: %v != %v",
								smooths, mem, p, start+i, j, got, want)
						}
					}
				}
			}
		}
	}
}

func TestMultigridUnevenBlocks(t *testing.T) {
	cfg := apps.DefaultMGConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 120, 16, 2
	d := dist.Distribution{30, 0, 50, 40}
	w := runApp(t, apps.NewMultigrid(cfg), uniformSpec(4, 8<<20), d)
	ref := apps.MGReference(cfg, d, cfg.Iterations)
	eb := cfg.Cols * 2
	for _, p := range []int{0, 2, 3} {
		blob := w.Rank(p).Disk().Extent("U")
		start := d.Start(p)
		for i := 0; i < d[p]; i++ {
			if got, want := f64At(blob, i*eb), ref[start+i][0]; got != want {
				t.Fatalf("rank %d row %d: %v != %v", p, start+i, got, want)
			}
		}
	}
}

func TestMultigridProgramStructure(t *testing.T) {
	prog := apps.MGProgram(apps.DefaultMGConfig())
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(prog.Sections) != 5 {
		t.Fatalf("%d sections, want 5", len(prog.Sections))
	}
	// Four exchanges and one reduction per V-cycle.
	nn, red := 0, 0
	for _, s := range prog.Sections {
		switch s.Comm.String() {
		case "nearest-neighbor":
			nn++
		case "reduction":
			red++
		}
	}
	if nn != 4 || red != 1 {
		t.Fatalf("nn=%d red=%d", nn, red)
	}
}
