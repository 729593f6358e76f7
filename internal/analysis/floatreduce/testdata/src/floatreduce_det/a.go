// Package floatreduce_det exercises completion-order float reductions
// under the deterministic contract.
//
//lint:deterministic
package floatreduce_det

type result struct {
	i int
	v float64
}

// MergeRange folds floats in channel-arrival order.
func MergeRange(ch <-chan result) float64 {
	var sum float64
	for r := range ch {
		sum += r.v // want `float accumulation into sum merges channel-delivered results in completion order`
	}
	return sum
}

// CollectRange appends results in channel-arrival order.
func CollectRange(ch <-chan result) []result {
	var out []result
	for r := range ch {
		out = append(out, r) // want `append to out collects channel-delivered results in completion order`
	}
	return out
}

// MergeFor receives inside a counted loop; the order is still arrival
// order.
func MergeFor(ch <-chan float64, n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		v := <-ch
		sum += v // want `float accumulation into sum merges channel-delivered results in completion order`
	}
	return sum
}

// MergeSelect drains two channels through a select.
func MergeSelect(a, b <-chan float64, n int) float64 {
	var sum float64
	for i := 0; i < 2*n; i++ {
		select {
		case v := <-a:
			sum += v // want `float accumulation into sum merges channel-delivered results in completion order`
		case v := <-b:
			sum += v // want `float accumulation into sum merges channel-delivered results in completion order`
		}
	}
	return sum
}

// IndexMerge writes each result into its own slot, so arrival order
// cannot change the outcome. This is the experiments.Runner.fanOut pattern.
func IndexMerge(ch <-chan result, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		r := <-ch
		out[r.i] = r.v
	}
	return out
}

// CountRecv accumulates an int, which is associative and commutative.
func CountRecv(ch <-chan result) int {
	var n int
	for range ch {
		n++
	}
	return n
}

// SerialSum has no channel in sight; plain loops are fine.
func SerialSum(vs []float64) float64 {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum
}

// LoopLocal accumulates into a variable scoped to the loop body, so
// nothing order-sensitive escapes.
func LoopLocal(ch <-chan result) int {
	var n int
	for r := range ch {
		local := 0.0
		local += r.v
		if local > 1 {
			n++
		}
	}
	return n
}

// Suppressed documents why arrival order is acceptable here.
func Suppressed(ch <-chan result) float64 {
	var sum float64
	for r := range ch {
		//lint:ignore floatreduce the caller tolerates ±1ulp; order does not matter for this diagnostic counter
		sum += r.v
	}
	return sum
}
