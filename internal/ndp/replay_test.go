package ndp

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"beacon/internal/cxl"
	"beacon/internal/memmgmt"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// testReplay builds a replay over n DIMM-homed nodes whose every flow is
// one DRAM access that completes after a fixed latency, or fails once
// failAt pieces have been served (failAt < 0 never fails).
func testReplay(t *testing.T, n, failAt int) (*Replay, *int) {
	t.Helper()
	var nodes []Node
	for i := 0; i < n; i++ {
		home := cxl.DIMM(0, i)
		mp, err := memmgmt.NewMapper(memmgmt.DefaultConfig(), home)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := New(fmt.Sprintf("n%d", i), Config{PEs: 2, QueueDepth: 2, AtomicEngines: 1})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, Node{Module: mod, Home: home, Mapper: mp})
	}
	served := 0
	access := func(now sim.Cycle, _ memmgmt.PlacedAccess, _ bool) (sim.Cycle, error) {
		served++
		if served == failAt {
			return 0, errors.New("serve failed")
		}
		return now + 10, nil
	}
	one := [...]Flow{{DRAMRead}, {DRAMRead}, {DRAMRead}}
	w := &Walker{Engine: sim.NewEngine(), Flows: Flows{Local: one, Remote: one}, Access: access}
	return NewReplay("test", nodes, w), &served
}

func testWorkload(tasks int) *trace.Workload {
	wl := &trace.Workload{Name: "t", Passes: 1, Tasks: make([]trace.Task, tasks)}
	wl.SpaceBytes[trace.SpaceOcc] = 1 << 16
	for i := range wl.Tasks {
		wl.Tasks[i].Steps = []trace.Step{
			{Space: trace.SpaceOcc, Addr: uint64(i) * 64, Size: 32},
			{Space: trace.SpaceOcc, Addr: uint64(i)*64 + 32, Size: 32, Light: true},
		}
	}
	return wl
}

// TestReplayCompletesEveryTask pins the loop's accounting: every task
// retires exactly once through OnTaskEnd, every step and placed piece is
// counted, and the schedulers drain.
func TestReplayCompletesEveryTask(t *testing.T) {
	r, served := testReplay(t, 3, -1)
	wl := testWorkload(11)
	if err := wl.Validate(); err != nil {
		t.Fatal(err)
	}
	ended, calls := map[*trace.Task]bool{}, 0
	r.OnTaskEnd = func(task *trace.Task, _ sim.Cycle) {
		ended[task] = true
		calls++
	}
	tot, err := r.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Tasks != 11 || tot.Steps != 22 {
		t.Errorf("tasks/steps = %d/%d, want 11/22", tot.Tasks, tot.Steps)
	}
	if got := tot.LocalAccesses + tot.RemoteAccesses; got != uint64(*served) {
		t.Errorf("local+remote = %d, served %d pieces", got, *served)
	}
	if len(ended) != 11 || calls != 11 {
		t.Errorf("OnTaskEnd saw %d calls for %d distinct tasks, want 11 each", calls, len(ended))
	}
	if tot.Cycles <= 0 || tot.PEBusyCycles <= 0 {
		t.Errorf("cycles %d, PE busy %d: want both positive", tot.Cycles, tot.PEBusyCycles)
	}
	for i, n := range r.nodes {
		if n.Module.Active() != 0 || n.Module.Backlog() != 0 {
			t.Errorf("node %d left %d active, %d queued", i, n.Module.Active(), n.Module.Backlog())
		}
	}
}

// TestReplaySurfacesServeError pins that the first serve failure aborts the
// run with that error instead of a task-count mismatch.
func TestReplaySurfacesServeError(t *testing.T) {
	r, _ := testReplay(t, 2, 5)
	if _, err := r.Run(testWorkload(6)); err == nil || err.Error() != "serve failed" {
		t.Fatalf("err = %v, want the serve failure", err)
	}
}

// TestRecordSizes guards the in-flight records' layout: both slabs hold one
// record per task or piece in flight, so a field that widens them costs
// every run. The bounds are the 64-bit sizes and hold on 32-bit too.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(taskRun{}); got > 48 {
		t.Errorf("taskRun is %d bytes, want at most 48", got)
	}
	if got := unsafe.Sizeof(walk{}); got > 96 {
		t.Errorf("walk is %d bytes, want at most 96", got)
	}
}

// TestReplayPresizesSlabs pins the presize rule: when the tasks fit the
// schedulers every one is in flight at once, so the task slab ends full
// at exactly its reserved capacity, never regrown, and the walk slab
// within its reservation.
func TestReplayPresizesSlabs(t *testing.T) {
	r, _ := testReplay(t, 3, -1) // 3 nodes of depth 2
	const tasks = 5
	if _, err := r.Run(testWorkload(tasks)); err != nil {
		t.Fatal(err)
	}
	if n, c := len(r.tasks.recs), cap(r.tasks.recs); n != tasks || c != tasks {
		t.Errorf("task slab len/cap = %d/%d, want %d/%d", n, c, tasks, tasks)
	}
	// Every step touches one 32 B block: one piece per task in flight.
	if n, c := len(r.w.walks.recs), cap(r.w.walks.recs); n > c || c != tasks {
		t.Errorf("walk slab len/cap = %d/%d, want len within cap %d", n, c, tasks)
	}
}

// TestReplayWalkSlabNeverRegrows pins the walk reservation on steps that
// fan out: each task's second step spans seven 32 B blocks, the tasks are
// all in flight at once, every piece waits an event between two DRAM
// phases so the pieces overlap, and the walk slab must hold them all
// within the capacity Run reserved from the workload's per-task peaks.
func TestReplayWalkSlabNeverRegrows(t *testing.T) {
	r, _ := testReplay(t, 3, -1) // 3 nodes of depth 2
	two := [...]Flow{{DRAMRead, DRAMRead}, {DRAMRead, DRAMRead}, {DRAMRead, DRAMRead}}
	r.w.Flows = Flows{Local: two, Remote: two}
	const tasks, fanout = 6, 7
	wl := testWorkload(tasks)
	for i := range wl.Tasks {
		wl.Tasks[i].Steps[1] = trace.Step{Space: trace.SpaceOcc, Addr: uint64(i)*256 + 16, Size: 200}
	}
	var g trace.Granules
	r.nodes[0].Mapper.Granules(&g, &wl.LocalSpaces)
	if got := wl.PieceBound(&g, tasks); got != tasks*fanout {
		t.Fatalf("PieceBound = %d, want %d", got, tasks*fanout)
	}
	tot, err := r.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Tasks != tasks {
		t.Fatalf("completed %d tasks, want %d", tot.Tasks, tasks)
	}
	n, c := len(r.w.walks.recs), cap(r.w.walks.recs)
	if c != tasks*fanout || n > c {
		t.Errorf("walk slab len/cap = %d/%d, want cap %d (never regrown) and len within it",
			n, c, tasks*fanout)
	}
	if n <= tasks {
		t.Errorf("walk slab peaked at %d records: the steps did not fan out", n)
	}
}

// TestReplayCalendarSlabNeverRegrows pins the engine reservation on the
// same fan-out: every piece waits an event between its two DRAM phases,
// so the events pending peak past one per task, and the calendar slab
// must hold them within the capacity Run reserved, the walk bound plus
// one opening admission per node.
func TestReplayCalendarSlabNeverRegrows(t *testing.T) {
	r, _ := testReplay(t, 3, -1) // 3 nodes of depth 2
	two := [...]Flow{{DRAMRead, DRAMRead}, {DRAMRead, DRAMRead}, {DRAMRead, DRAMRead}}
	r.w.Flows = Flows{Local: two, Remote: two}
	const tasks, fanout = 6, 7
	wl := testWorkload(tasks)
	for i := range wl.Tasks {
		wl.Tasks[i].Steps[1] = trace.Step{Space: trace.SpaceOcc, Addr: uint64(i)*256 + 16, Size: 200}
	}
	tot, err := r.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if tot.Tasks != tasks {
		t.Fatalf("completed %d tasks, want %d", tot.Tasks, tasks)
	}
	peak, room := r.engine.Slab()
	if want := tasks*fanout + len(r.nodes); room != want || peak > room {
		t.Errorf("calendar slab peak/room = %d/%d, want room %d (never regrown) and the peak within it",
			peak, room, want)
	}
	if peak <= tasks {
		t.Errorf("calendar slab peaked at %d events: the steps did not fan out", peak)
	}
}

// TestReplayBoundedByQueueDepth pins the other regime: with fewer
// scheduler slots than tasks, the task slab never holds more records
// than the slots, and that is all it reserves.
func TestReplayBoundedByQueueDepth(t *testing.T) {
	r, _ := testReplay(t, 3, -1) // 3 nodes of depth 2
	const slots = 6
	tot, err := r.Run(testWorkload(4 * slots))
	if err != nil {
		t.Fatal(err)
	}
	if tot.Tasks != 4*slots {
		t.Fatalf("completed %d tasks, want %d", tot.Tasks, 4*slots)
	}
	if n, c := len(r.tasks.recs), cap(r.tasks.recs); n > slots || c != slots {
		t.Errorf("task slab len/cap = %d/%d, want at most %d records in a slab of %d", n, c, slots, slots)
	}
}
