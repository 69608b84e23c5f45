package runner

// readyHeap is the ready queue: jobs whose dependencies are all
// resolved, jobs that others wait on first (more dependents first), then
// by submission ID. This is list scheduling on the dependency graph's
// shape: a sweep starts every capture before any replay, so the
// replays that end a sweep spread over every worker instead of queueing
// behind a late capture. Jobs with no dependents run FIFO, and the
// order is deterministic, so single-worker execution stays reproducible.
// It implements container/heap.Interface; the pool mutex guards it, and
// a job's dependents are wired before it is queued.
type readyHeap []*jobRec

func (h readyHeap) Len() int { return len(h) }

func (h readyHeap) Less(i, j int) bool {
	if a, b := len(h[i].dependents), len(h[j].dependents); a != b {
		return a > b
	}
	return h[i].id < h[j].id
}

func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *readyHeap) Push(x interface{}) { *h = append(*h, x.(*jobRec)) }

func (h *readyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	rec := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return rec
}
