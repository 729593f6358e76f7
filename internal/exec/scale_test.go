package exec_test

// Scale tests for the event engine: the whole point of replacing
// goroutine-per-rank with a discrete-event heap (DESIGN.md §5.13) is
// that a 10,000-rank cluster emulates in seconds. The wall-clock guard
// here is deliberately loose (the ISSUE's 10 s bound, far above the
// observed time) so the test catches an accidental return to O(n²)
// structures — mailbox tables, per-link matrices, per-rank linear scans —
// not machine jitter.

import (
	"testing"
	"time"

	"mheta/internal/apps"
	"mheta/internal/dist"
	"mheta/internal/exec"
	"mheta/internal/mpi"
	"mheta/internal/sched"
)

func TestEventEngine10kRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rank emulation in -short mode")
	}
	const ranks = 10000
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 2*ranks, 4, 2
	app := apps.NewJacobi(cfg) // nearest-neighbour sections
	w := mpi.NewWorld(uniformSpec(ranks, 1<<20), 7, 0.02)

	var st sched.Stats
	start := time.Now()
	res, err := exec.Run(w, app, dist.Block(cfg.Rows, ranks), exec.Options{EventStats: &st})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("10k-rank emulation took %v, want < 10s", elapsed)
	}
	if len(res.NodeTimes) != ranks {
		t.Fatalf("got %d node times, want %d", len(res.NodeTimes), ranks)
	}
	for p, nt := range res.NodeTimes {
		if !(nt > 0) {
			t.Fatalf("rank %d finish time %v, want > 0", p, nt)
		}
	}
	// Every rank must have been dispatched at least once per park point;
	// a trivially-too-small event count means the run didn't actually
	// exercise the scheduler.
	if st.Events < ranks {
		t.Errorf("scheduler dispatched %d events for %d ranks", st.Events, ranks)
	}
	if st.Sends == 0 || st.Parks == 0 || st.Wakes == 0 {
		t.Errorf("degenerate scheduler stats: %+v", st)
	}
	t.Logf("10k ranks: %v wall, %d events, %d sends, %d parks, max heap %d",
		elapsed, st.Events, st.Sends, st.Parks, st.MaxHeap)
}

// TestEmulateAllocBudget pins the event engine's allocation budget: a
// 1,000-rank Jacobi emulation, world set-up included, makes at most 20
// allocations per rank. Wall time on a shared host is too noisy to gate
// a speed-up on; allocation counts are exact, and they are what the
// event core's speed comes from (DESIGN.md §5.13).
func TestEmulateAllocBudget(t *testing.T) {
	const ranks, budget = 1000, 20
	cfg := apps.DefaultJacobiConfig()
	cfg.Rows, cfg.Cols, cfg.Iterations = 2*ranks, 4, 2
	app := apps.NewJacobi(cfg)
	spec := uniformSpec(ranks, 1<<20)
	d := dist.Block(cfg.Rows, ranks)
	allocs := testing.AllocsPerRun(3, func() {
		w := mpi.NewWorld(spec, 7, 0.02)
		if _, err := exec.Run(w, app, d, exec.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d ranks (%.1f per rank)", allocs, ranks, allocs/ranks)
	if allocs > budget*ranks {
		t.Errorf("%.1f allocations per rank, budget %d", allocs/ranks, budget)
	}
}
