package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between the two closest ranks (position q·(n−1), the
// numpy default). It returns 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// peakRSSMB reads a process's peak resident set size (VmHWM) from
// /proc/<pid>/status, in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// setLatency reports op_p50_ms, the median of the operations' latencies
// in milliseconds, and logs it with the tail quantile and the sample
// count. The tail is not a reported metric: on a shared host it moved
// by more than its bound between runs of the same code.
func (r *report) setLatency(lat []float64, tail float64) {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	p50 := percentile(sorted, 0.5)
	r.set("op_p50_ms", p50)
	fmt.Fprintf(r.log, "latency over %d operations: p50 %.6g ms, p%g %.6g ms\n",
		len(sorted), p50, 100*tail, percentile(sorted, tail))
}
