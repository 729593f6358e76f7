// Package leakcheck_bad plants one violation per leakcheck rule:
// unterminated goroutines (bare loop, unclosed-channel range, via the
// callgraph) and broken or unsupported lifecycle annotations.
package leakcheck_bad

import "sync"

func spinForever() {
	go func() { // want `goroutine may never terminate: the loop at line \d+ has no stop signal`
		for {
		}
	}()
}

func drainNever(in chan int) {
	go func() { // want `goroutine may never terminate: the range over in at line \d+ never ends`
		for range in {
		}
	}()
}

type pump struct{}

func (p *pump) loop() {
	for {
	}
}

func (p *pump) start() {
	go p.loop() // want `goroutine may never terminate: the loop at line \d+ has no stop signal`
}

type phantom struct{ wg sync.WaitGroup }

func (p *phantom) kick() {
	//mheta:lifecycle waitgroup
	go func() { // want `no sync.WaitGroup Add call precedes`
		for {
		}
	}()
}

// A stop channel is not an accepted mechanism: select on it in the loop
// instead, which needs no annotation.
type worker struct{ stop chan struct{} }

func (w *worker) run() {
	for {
	}
}

func (w *worker) start() {
	//mheta:lifecycle stop
	go w.run() // want `//mheta:lifecycle takes one mechanism, "waitgroup" \(got "stop"\)`
}

//mheta:lifecycle waitgroup // want `must sit on a go statement`
var strayLifecycle int

// Done on another WaitGroup, or a Done that is not deferred, does not
// pair with the Add before the spawn.
func wrongGroup(jobs []int) {
	var wg, started sync.WaitGroup
	for range jobs {
		wg.Add(1)
		started.Add(1)
		//mheta:lifecycle waitgroup
		go func() { // want `never defers Done on a WaitGroup added before the go statement`
			started.Done()
			wg.Done()
		}()
	}
	started.Wait()
	wg.Wait()
}

// A trailing annotation on the line above belongs to that line.
func trailing(wg *sync.WaitGroup) {
	wg.Add(1)   //mheta:lifecycle waitgroup // want `must sit on a go statement`
	go func() { // want `goroutine may never terminate`
		defer wg.Done()
		for {
		}
	}()
}

// ---- suppression: a reasoned ignore hides the finding ----

func tolerated() {
	//lint:ignore leakcheck the fixture demonstrates a reasoned suppression
	go func() {
		for {
		}
	}()
}
