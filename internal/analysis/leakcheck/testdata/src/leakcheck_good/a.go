// Package leakcheck_good exercises every termination proof leakcheck
// accepts: loop-free goroutines, verified waitgroup annotations, and
// loops that receive a ctx.Done, a package-closed channel or a comma-ok
// value. The analyzer must stay silent on all of it.
package leakcheck_good

import (
	"context"
	"sync"
	"time"
)

// Loop-free fire-and-forget: terminates trivially.
func fireAndForget(done chan struct{}) {
	go func() {
		close(done)
	}()
}

// A waitgroup-annotated spawn whose loop ends on a comma-ok receive.
type drainer struct {
	queue chan int
	wg    sync.WaitGroup
}

func (d *drainer) start() {
	d.wg.Add(1)
	go d.loop() //mheta:lifecycle waitgroup
}

func (d *drainer) loop() {
	defer d.wg.Done()
	for {
		if _, ok := <-d.queue; !ok {
			return
		}
	}
}

// A stop channel closed in this package ends the loop that selects on
// it; no annotation is needed.
type ticker struct{ stop chan struct{} }

func (t *ticker) start() {
	go t.run()
}

func (t *ticker) run() {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-t.stop:
			return
		}
	}
}

func (t *ticker) shutdown() {
	close(t.stop)
}

// A ctx.Done select inside the spawned loop proves termination.
func watch(ctx context.Context, sig chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-sig:
			}
		}
	}()
}

// Ranging over a channel this package closes ends with the close.
func pipe(vals []int) int {
	out := make(chan int)
	sum := make(chan int, 1)
	go func() {
		s := 0
		for v := range out {
			s += v
		}
		sum <- s
	}()
	for _, v := range vals {
		out <- v
	}
	close(out)
	return <-sum
}

// Bounded stride workers: conditioned loops terminate on their own; the
// annotation documents (and leakcheck verifies) the Add/Done pairing.
func boundedWorkers(jobs []int) int {
	var wg sync.WaitGroup
	total := make([]int, 4)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		//mheta:lifecycle waitgroup
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(jobs); i += 4 {
				total[k] += jobs[i]
			}
		}(k)
	}
	wg.Wait()
	return total[0] + total[1] + total[2] + total[3]
}
