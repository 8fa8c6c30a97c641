//go:build beacon_heapref

package sim

// defaultScheduler is the queue NewEngine builds. The beacon_heapref build
// tag swaps in the reference heap so a whole binary, or a whole test run,
// can be cross-checked against the calendar queue's byte-identical output.
func defaultScheduler() scheduler { return &heapScheduler{} }
