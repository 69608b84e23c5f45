package runner

// readyHeap is the min-heap ready queue: jobs whose dependencies are all
// resolved, ordered by submission ID, which makes worker pop order
// deterministic and keeps single-worker execution identical to the old
// serial loops. It implements container/heap.Interface.
type readyHeap []*jobRec

func (h readyHeap) Len() int { return len(h) }

func (h readyHeap) Less(i, j int) bool { return h[i].id < h[j].id }

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
