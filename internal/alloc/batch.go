package alloc

// Batch allocation for simultaneous arrivals. A discrete-event simulator
// regularly sees several jobs arrive at the same timestamp (bursty
// sources, trace replays with second-resolution arrival stamps); serving
// them in one call lets the caller plan the whole burst from one
// free-count read.

// BatchAllocator is implemented by allocators that serve several requests
// in one call. AllocateBatch(reqs) is defined to be exactly equivalent to
// calling Allocate on each request in order — same ids, same machine
// state after, bit for bit. It stops at the first failure, returning the
// successful prefix's id slices alongside the error; prefix allocations
// remain in effect.
//
// Only exact-size allocators implement it: their Allocate consumes
// exactly req.Size processors and succeeds whenever req.Size <=
// NumFree(). That contract is what lets callers plan a whole batch from
// one NumFree snapshot — the engine's batch dispatch sums request sizes
// against a single free-count read and knows every allocation in the
// prefix will succeed. The contiguous baselines (submesh, buddy) can
// refuse with processors to spare and the paged allocator consumes whole
// pages, so they stay outside the interface and batch callers fall back
// to one-at-a-time allocation.
type BatchAllocator interface {
	Allocator
	// AllocateBatch serves the requests in order, stopping at the first
	// error; it returns one id slice per satisfied request.
	AllocateBatch(reqs []Request) ([][]int, error)
}

// Batch serves reqs through a's AllocateBatch when it implements
// BatchAllocator and one request at a time otherwise. The results are
// identical either way; only the amortization differs.
func Batch(a Allocator, reqs []Request) ([][]int, error) {
	if ba, ok := a.(BatchAllocator); ok {
		return ba.AllocateBatch(reqs)
	}
	return allocateSeq(a, reqs)
}

// allocateSeq is the definitional semantics of a batch: Allocate each
// request in order and stop at the first error.
func allocateSeq(a Allocator, reqs []Request) ([][]int, error) {
	out := make([][]int, 0, len(reqs))
	for _, r := range reqs {
		ids, err := a.Allocate(r)
		if err != nil {
			return out, err
		}
		out = append(out, ids)
	}
	return out, nil
}

// AllocateBatch implements BatchAllocator. Paging consumes exactly
// req.Size curve ranks per request.
func (p *Paging) AllocateBatch(reqs []Request) ([][]int, error) {
	return allocateSeq(p, reqs)
}

// AllocateBatch implements BatchAllocator.
func (a *MC) AllocateBatch(reqs []Request) ([][]int, error) {
	return allocateSeq(a, reqs)
}

// AllocateBatch implements BatchAllocator.
func (a *GenAlg) AllocateBatch(reqs []Request) ([][]int, error) {
	return allocateSeq(a, reqs)
}

// AllocateBatch implements BatchAllocator.
func (a *Random) AllocateBatch(reqs []Request) ([][]int, error) {
	return allocateSeq(a, reqs)
}
