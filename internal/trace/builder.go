package trace

import "fmt"

// Arena chunk sizes: the first chunk holds builderFirstChunk steps and
// each later one twice its predecessor, up to builderChunkSteps (32 Ki
// steps ≈ 768 KiB). A small trace thus allocates about what it holds, and
// a large one pays chunk bookkeeping once per 32 Ki steps.
const (
	builderFirstChunk = 1 << 8
	builderChunkSteps = 1 << 15
)

// Builder assembles a Workload incrementally without growing one giant
// per-workload (or per-task) slice. The functional kernels emit millions of
// steps on the large species; append-doubling a single []Step both copies
// the whole prefix repeatedly and strands up to half the final footprint as
// slack. The builder instead writes each step once, straight into the
// current arena chunk behind the tasks already sealed there:
//
//   - EndTask seals the open task in place: its Task.Steps aliases the
//     chunk, capacity capped at its length, so downstream code sees the
//     familiar []Step shape without a per-task allocation.
//   - A task that outgrows its chunk moves, alone, to a fresh chunk
//     (doubling, see builderChunkSteps) at least twice its size; sealed
//     tasks are never copied again.
//
// The emission order of BeginTask/Step/EndTask calls fully determines the
// resulting Workload, so a kernel ported from slice-append to the builder
// produces a bit-identical trace.
type Builder struct {
	name   string
	passes int
	merge  uint64
	space  [NumSpaces]uint64
	local  [NumSpaces]bool

	tasks  []Task
	engine Engine
	inTask bool
	chunk  []Step // current arena chunk; its length is the sealed steps in it
	open   []Step // the open task's steps, which follow chunk's; nil outside a task
	steps  int    // total sealed steps
}

// NewBuilder starts a workload with the given name and one pass.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, passes: 1}
}

// SetPasses sets the number of input passes the timing model replays.
func (b *Builder) SetPasses(n int) { b.passes = n }

// SetMergeBytes sets the one-time all-to-all merge traffic.
func (b *Builder) SetMergeBytes(n uint64) { b.merge = n }

// SetSpaceBytes declares (or updates) a space's footprint.
func (b *Builder) SetSpaceBytes(s Space, n uint64) { b.space[s] = n }

// SetLocalSpace marks a space as replicated/partitioned per PE.
func (b *Builder) SetLocalSpace(s Space, local bool) { b.local[s] = local }

// BeginTask opens a new task on the given engine. Tasks cannot nest.
func (b *Builder) BeginTask(e Engine) {
	if b.inTask {
		panic("trace: BeginTask inside an open task")
	}
	b.inTask = true
	b.engine = e
	b.open = b.chunk[len(b.chunk):]
}

// Step appends one memory step to the open task.
func (b *Builder) Step(st Step) {
	if len(b.open) == cap(b.open) {
		b.grow()
	}
	b.open = append(b.open, st)
}

// grow moves the open task to a new chunk. Outside a task open is nil, so
// Step lands here too, and the misuse check stays out of Step's inlined
// body.
func (b *Builder) grow() {
	if !b.inTask {
		panic("trace: Step outside a task")
	}
	size := min(max(2*cap(b.chunk), builderFirstChunk), builderChunkSteps)
	chunk := make([]Step, len(b.open), max(size, 2*len(b.open)))
	copy(chunk, b.open)
	b.chunk, b.open = chunk[:0], chunk
}

// EndTask seals the open task where it lies in the arena.
func (b *Builder) EndTask() {
	if !b.inTask {
		panic("trace: EndTask without BeginTask")
	}
	b.inTask = false
	n := len(b.open)
	t := Task{Engine: b.engine}
	if n > 0 {
		// A step-less task keeps nil Steps, as the slice-append idiom would.
		t.Steps = b.open[:n:n]
	}
	b.tasks = append(b.tasks, t)
	b.chunk = b.chunk[:len(b.chunk)+n]
	b.open = nil
	b.steps += n
}

// Tasks reports the number of sealed tasks so far.
func (b *Builder) Tasks() int { return len(b.tasks) }

// Steps reports the number of sealed steps so far.
func (b *Builder) Steps() int { return b.steps }

// Finish validates and returns the assembled workload. The builder must not
// be reused afterwards.
func (b *Builder) Finish() (*Workload, error) {
	if b.inTask {
		return nil, fmt.Errorf("trace: Finish with an open task in workload %q", b.name)
	}
	wl := &Workload{
		Name:        b.name,
		Tasks:       b.tasks,
		SpaceBytes:  b.space,
		Passes:      b.passes,
		LocalSpaces: b.local,
		MergeBytes:  b.merge,
	}
	if err := wl.Validate(); err != nil {
		return nil, err
	}
	return wl, nil
}
