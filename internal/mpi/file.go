package mpi

// File operations: the MPI-IO analogue. Applications make explicit calls
// to read and write their local arrays (§3.1: "we assume the applications
// make explicit calls to read and write from disk"), and these calls are
// what MPI-Jack intercepts in Figure 3 to associate I/O latencies with
// variable IDs.

// FileRead synchronously reads n bytes of variable v at byte offset off
// from the rank's local disk and returns them as a view of the extent
// (disksim.Disk.Read).
func (r *Rank) FileRead(v string, off, n int) []byte {
	c := CallInfo{Kind: CallFileRead, Var: v, Bytes: n}
	start := r.begin(c)
	data, _ := r.disk.Read(&r.clk, v, off, n)
	r.end(c, start)
	return data
}

// FileWrite synchronously writes data into variable v at byte offset off.
func (r *Rank) FileWrite(v string, off int, data []byte) {
	c := CallInfo{Kind: CallFileWrite, Var: v, Bytes: len(data)}
	start := r.begin(c)
	r.disk.Write(&r.clk, v, off, data)
	r.end(c, start)
}

// FilePrefetchIssue starts an asynchronous read of variable v and returns
// a handle for FilePrefetchWait. Under the instrumentation transform
// (disksim.ModeInstrument) the issue blocks like a synchronous read, as in
// Figure 5.
func (r *Rank) FilePrefetchIssue(v string, off, n int) int {
	c := CallInfo{Kind: CallPrefetchIssue, Var: v, Bytes: n}
	start := r.begin(c)
	tag := r.disk.PrefetchIssue(&r.clk, v, off, n)
	r.end(c, start)
	return tag
}

// FilePrefetchWait blocks until the prefetch completes and returns its
// data, a view of the extent like FileRead's. The CallInfo's Wait field carries the unmasked latency (zero when
// overlap computation fully hid the read — the Le = 0 case of Equation 2).
func (r *Rank) FilePrefetchWait(v string, tag int) []byte {
	c := CallInfo{Kind: CallPrefetchWait, Var: v}
	start := r.begin(c)
	data, waited := r.disk.PrefetchWait(&r.clk, tag)
	c.Bytes = len(data)
	c.Wait = waited
	r.end(c, start)
	return data
}
