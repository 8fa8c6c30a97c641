package trace

import (
	"math/rand"
	"runtime"
	"testing"
)

// buildTasks emits one task per entry of sizes, step s of task ti at
// address ti<<32 | s, and returns the finished workload.
func buildTasks(t *testing.T, sizes []int) *Workload {
	t.Helper()
	b := NewBuilder("builder")
	b.SetSpaceBytes(SpaceOcc, 1<<62)
	for ti, n := range sizes {
		b.BeginTask(EngineFMIndex)
		for s := 0; s < n; s++ {
			b.Step(Step{Op: OpRead, Space: SpaceOcc, Addr: uint64(ti)<<32 | uint64(s), Size: 1})
		}
		b.EndTask()
	}
	wl, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// checkTasks compares wl with what buildTasks emitted for sizes. Every
// Task.Steps must have cap == len, so that appending to one task never
// writes over the next; a step-less task must carry nil Steps.
func checkTasks(t *testing.T, wl *Workload, sizes []int) {
	t.Helper()
	if len(wl.Tasks) != len(sizes) {
		t.Fatalf("%d tasks, want %d", len(wl.Tasks), len(sizes))
	}
	for ti, n := range sizes {
		steps := wl.Tasks[ti].Steps
		if len(steps) != n || cap(steps) != n {
			t.Fatalf("task %d: len %d cap %d, want %d", ti, len(steps), cap(steps), n)
		}
		if n == 0 && steps != nil {
			t.Fatalf("task %d: empty task has non-nil Steps", ti)
		}
		for s, st := range steps {
			if want := uint64(ti)<<32 | uint64(s); st.Addr != want {
				t.Fatalf("task %d step %d: addr %#x, want %#x", ti, s, st.Addr, want)
			}
		}
	}
}

// TestBuilderTaskStraddlesChunk opens tasks that do not fit what is left of
// the first chunks, so each moves to the next chunk mid-task while the
// tasks sealed before it stay where they are.
func TestBuilderTaskStraddlesChunk(t *testing.T) {
	t.Parallel()
	sizes := []int{
		builderFirstChunk - 3, 7, // the second task starts 3 steps before the end
		builderFirstChunk, 2*builderFirstChunk - 1, 1, 1, // exactly full, then tight
		3 * builderFirstChunk, 5, 0, 9,
	}
	checkTasks(t, buildTasks(t, sizes), sizes)
}

// TestBuilderTaskLongerThanChunk emits tasks longer than the largest chunk,
// first into a fresh builder and then after a partly filled chunk, with
// short tasks after each so that they share the oversized chunk's slack.
func TestBuilderTaskLongerThanChunk(t *testing.T) {
	t.Parallel()
	sizes := []int{2*builderChunkSteps + 5, 3, builderFirstChunk / 2, builderChunkSteps + 1, 4}
	checkTasks(t, buildTasks(t, sizes), sizes)
}

// TestBuilderEmptyTasks interleaves step-less tasks with others, at the
// start, between and at the end.
func TestBuilderEmptyTasks(t *testing.T) {
	t.Parallel()
	for _, sizes := range [][]int{
		{0},
		{0, 0, 3, 0, builderFirstChunk, 0, 1, 0},
	} {
		checkTasks(t, buildTasks(t, sizes), sizes)
	}
}

// TestDecodeWorkloadAllocations guards the arena's growth from a small
// first chunk: decoding a trace of about 3k steps, the size of a small
// kernel's, must not allocate a full-size chunk (32 Ki steps, 768 KiB).
// It does not run in parallel, so the process-wide allocation count is its
// own.
func TestDecodeWorkloadAllocations(t *testing.T) {
	wl := randomWorkload(rand.New(rand.NewSource(6)), 700)
	if n := wl.TotalSteps(); n < 2500 || n > 4000 {
		t.Fatalf("fixture has %d steps, want about 3k", n)
	}
	data := EncodeWorkload(wl)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecodeWorkload(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 256<<10 {
		t.Fatalf("decoding %d steps allocated %d KB, want < 256 KB", wl.TotalSteps(), perOp>>10)
	}
}
