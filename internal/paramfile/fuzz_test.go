package paramfile

import (
	"bytes"
	"math"
	"testing"

	"mheta/internal/core"
)

// FuzzDecode feeds arbitrary bytes to Decode, the parser behind every
// parameter file a user hands to mheta-predict. Decode must never
// panic, and any parameter set it accepts must build a model that
// predicts its own base distribution to finite times.
// The committed seeds under testdata/fuzz/FuzzDecode are a valid file,
// a truncated one, one with an unknown field and one with a negative
// node count, plus any crasher the fuzzer has found.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := core.NewModel(p)
		if err != nil {
			t.Fatalf("Decode accepted parameters NewModel rejects: %v", err)
		}
		pred := m.Predict(p.BaseDist)
		for i, x := range append([]float64{pred.Total, pred.PerIteration}, pred.NodeTimes...) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("prediction %d of the base distribution is %v: %+v", i, x, pred)
			}
		}
	})
}
