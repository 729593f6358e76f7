package main

import (
	"fmt"
	"strconv"

	"mheta/internal/cluster"
	"mheta/internal/dist"
	"mheta/internal/experiments"
)

// scenario is one served model: an application at paper scale on a
// Table 1 configuration, instrumented under seed 42. Those are the
// server's defaults, so the request bodies name only app and config, and
// set-up work is the same for every workload seed.
type scenario struct{ app, config string }

const (
	scenarioScale = experiments.ScalePaper
	scenarioSeed  = 42
)

var (
	appNames = []string{"jacobi", "jacobi-pf", "cg", "lanczos", "rna", "multigrid"}
	configs  = []string{"DC", "IO", "HY1", "HY2"}

	// hotScenario is fixed, not seed-chosen: the request cost depends on
	// the application (the server rebuilds it per request), and the
	// benchmark's spread is measured across seeds.
	hotScenario = scenario{"jacobi", "HY1"}

	// searchScenarios spread the searches over every app and config.
	searchScenarios = []scenario{
		{"jacobi", "HY1"}, {"jacobi-pf", "IO"}, {"cg", "HY2"}, {"lanczos", "DC"},
		{"rna", "HY1"}, {"multigrid", "HY2"}, {"cg", "IO"}, {"rna", "DC"},
	}
	searchAlgs    = []string{"gbs", "genetic", "annealing", "random"}
	searchWorkers = []int{1, 2}
)

// spreadScenarios is every app on every configuration.
func spreadScenarios() []scenario {
	var out []scenario
	for _, a := range appNames {
		for _, c := range configs {
			out = append(out, scenario{a, c})
		}
	}
	return out
}

// resolve builds the scenario's cluster spec and application the way the
// server does.
func (s scenario) resolve() (cluster.Spec, experiments.AppBuilder, error) {
	b, err := experiments.BuilderByName(s.app)
	if err != nil {
		return cluster.Spec{}, b, err
	}
	spec, err := cluster.Named(s.config)
	return spec, b, err
}

func (s scenario) String() string { return s.app + "/" + s.config }

// rng is a splitmix64 stream: small, fast and identical on every
// platform, so a seed fixes the request stream byte for byte.
type rng struct{ s uint64 }

// newRNG derives the stream for item i of a seed's input.
func newRNG(seed, i uint64) rng {
	r := rng{s: seed}
	r.s = r.next() ^ (i+1)*0xD1B54A32D192ED03
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// predictReq is one /predict request of a stream.
type predictReq struct {
	scen     int // index into the stream's scenarios
	d        dist.Distribution
	detailed bool
}

// predictStream is a seeded, indexable /predict request stream: request
// i is a pure function of the seed and i, so the oracle regenerates it
// after the timed loop instead of storing it.
type predictStream struct {
	name   string
	scens  []scenario
	totals []int // elements of each scenario's application
	at     func(i int64) predictReq
	// prewarm requests every distinct request once before timing (the
	// hot stream's memo is warm by construction).
	prewarm int
}

func newPredictStream(name string, scens []scenario) *predictStream {
	ps := &predictStream{name: name, scens: scens, totals: make([]int, len(scens))}
	for i, s := range scens {
		_, b, err := s.resolve()
		if err != nil {
			panic(err) // the scenario tables above are static
		}
		ps.totals[i] = b.Build(scenarioScale).Prog.GlobalElems()
	}
	return ps
}

// hotStream rotates 16 seeded perturbations of Blk on hotScenario; all
// 16 are requested during set-up, so every timed request is a memo hit.
func hotStream(seed uint64) *predictStream {
	ps := newPredictStream("predict-hot", []scenario{hotScenario})
	spec, _, _ := hotScenario.resolve()
	blk := dist.Block(ps.totals[0], spec.N())
	ds := make([]dist.Distribution, 16)
	for k := range ds {
		r := newRNG(seed, uint64(k))
		d := blk.Clone()
		for m := 0; m < 2; m++ {
			from, to := r.intn(len(d)), r.intn(len(d)-1)
			if to >= from {
				to++
			}
			n := 1 + r.intn(64)
			d[from] -= n
			d[to] += n
		}
		ds[k] = d
	}
	ps.at = func(i int64) predictReq { return predictReq{d: ds[i%int64(len(ds))]} }
	ps.prewarm = len(ds)
	return ps
}

// spreadStream draws a fresh random distribution for every request,
// spread over all 24 scenarios; one request in ten asks for the
// detailed prediction.
func spreadStream(seed uint64) *predictStream {
	ps := newPredictStream("predict-spread", spreadScenarios())
	nodes := make([]int, len(ps.scens))
	for i, s := range ps.scens {
		spec, _, _ := s.resolve()
		nodes[i] = spec.N()
	}
	ps.at = func(i int64) predictReq {
		r := newRNG(seed, uint64(i))
		s := r.intn(len(ps.scens))
		w := make([]float64, nodes[s])
		for k := range w {
			w[k] = 0.05 + r.float()
		}
		return predictReq{scen: s, d: dist.Proportional(ps.totals[s], w), detailed: r.intn(10) == 0}
	}
	return ps
}

// appendBody appends the request's JSON body to dst.
func (ps *predictStream) appendBody(dst []byte, q predictReq) []byte {
	s := ps.scens[q.scen]
	dst = append(dst, `{"app":"`...)
	dst = append(dst, s.app...)
	dst = append(dst, `","config":"`...)
	dst = append(dst, s.config...)
	dst = append(dst, '"')
	if q.d != nil {
		dst = append(dst, `,"dist":[`...)
		for k, b := range q.d {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(b), 10)
		}
		dst = append(dst, ']')
	}
	if q.detailed {
		dst = append(dst, `,"detailed":true`...)
	}
	return append(dst, '}')
}

// searchReq is one /search request.
type searchReq struct {
	scen    int // index into searchScenarios
	alg     string
	workers int
}

// searchCycle is every (algorithm, scenario, workers) combination in a
// seed-shuffled order; the search stream repeats it.
func searchCycle(seed uint64) []searchReq {
	var c []searchReq
	for _, alg := range searchAlgs {
		for s := range searchScenarios {
			for _, w := range searchWorkers {
				c = append(c, searchReq{scen: s, alg: alg, workers: w})
			}
		}
	}
	r := newRNG(seed, 1<<40)
	for i := len(c) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		c[i], c[j] = c[j], c[i]
	}
	return c
}

func appendSearchBody(dst []byte, q searchReq) []byte {
	s := searchScenarios[q.scen]
	return fmt.Appendf(dst, `{"app":%q,"config":%q,"alg":%q,"workers":%d}`, s.app, s.config, q.alg, q.workers)
}
