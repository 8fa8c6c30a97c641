//go:build !beacon_heapref

package sim

// defaultScheduler is the queue NewEngine builds: the calendar queue.
func defaultScheduler() scheduler { return newCalendarScheduler() }
