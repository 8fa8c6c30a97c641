package sim

import "container/heap"

// heapScheduler is the original binary-heap pending-event queue, retained
// as the reference implementation for the calendar queue's differential
// suite. One heap node is allocated per event and every push/pop costs
// O(log n) comparisons; correctness is carried entirely by the standard
// library's container/heap and the (at, seq) ordering below.
type heapScheduler struct {
	events eventHeap
}

type event struct {
	at  Cycle
	seq uint64 // insertion order; breaks ties deterministically
	act action
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

func (h *heapScheduler) schedule(at Cycle, seq uint64, a action) {
	heap.Push(&h.events, &event{at: at, seq: seq, act: a})
}

func (h *heapScheduler) pop() (Cycle, action, bool) {
	if len(h.events) == 0 {
		return 0, action{}, false
	}
	ev := heap.Pop(&h.events).(*event)
	return ev.at, ev.act, true
}

func (h *heapScheduler) len() int { return len(h.events) }
