// Package trace defines the interface between the functional genomics
// kernels and the timing simulators: a Task is one unit of input (a DNA read,
// a read pair, a k-mer batch) expanded into the exact sequence of compute and
// memory steps the corresponding BEACON PE would execute.
//
// This mirrors the paper's methodology — applications drive a modified
// Ramulator — while keeping the two halves independently testable: the
// functional kernels are verified against naive reference implementations,
// and the timing models are verified against queueing-theory expectations.
package trace

import (
	"fmt"
	"math/bits"
)

// Space identifies a logical data structure placed in the memory pool. The
// memory-management framework (internal/memmgmt) decides which DIMMs hold
// each space and how addresses interleave across chips/ranks/banks.
type Space uint8

// The address spaces referenced by the four applications.
const (
	// SpaceOcc is the FM-index Occ/BWT block table. Accesses are 32 B and
	// random — the paper's canonical fine-grained pattern (§IV-B).
	SpaceOcc Space = iota
	// SpaceSuffixArray is the sampled suffix array used by locate().
	SpaceSuffixArray
	// SpaceHashBucket is the hash-index bucket directory.
	SpaceHashBucket
	// SpaceCandidates holds per-seed candidate location lists; entries for
	// one seed are stored contiguously (row-level spatial locality, §IV-C).
	SpaceCandidates
	// SpaceBloom is the counting Bloom filter bit/counter array; accesses
	// are sub-byte and atomic (RMW) during counting.
	SpaceBloom
	// SpaceCounters is the exact k-mer counter table (atomic RMW).
	SpaceCounters
	// SpaceReference is the packed reference genome (streaming reads).
	SpaceReference
	// SpaceReads is the input read buffer (streaming).
	SpaceReads
	// NumSpaces is the number of defined spaces.
	NumSpaces
)

var spaceNames = [...]string{
	"occ", "sa", "hashbucket", "candidates", "bloom", "counters", "reference", "reads",
}

// String names the space.
func (s Space) String() string {
	if int(s) < len(spaceNames) {
		return spaceNames[s]
	}
	return fmt.Sprintf("space(%d)", uint8(s))
}

// Op is a memory operation kind.
type Op uint8

// Memory operation kinds.
const (
	// OpRead fetches Size bytes.
	OpRead Op = iota
	// OpWrite stores Size bytes.
	OpWrite
	// OpAtomicRMW is a read-modify-write handled by the atomic engine at the
	// switch (or DIMM) so racing updates serialize without a host round trip.
	OpAtomicRMW
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAtomicRMW:
		return "rmw"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Engine selects the fixed-function PE engine that executes a task. The
// compute latencies are the paper's synthesized values (§VI-A): 16, 10, 59
// and 82 DRAM cycles per step for FM-index seeding, hash-index seeding,
// k-mer counting and pre-alignment respectively.
type Engine uint8

// PE engines. The last two are the §V extension engines ("Extension to
// Other Applications"): BEACON with its genomics PEs swapped for graph-
// processing and database-searching units.
const (
	EngineFMIndex Engine = iota
	EngineHashIndex
	EngineKMC
	EnginePreAlign
	EngineGraph
	EngineDB
	NumEngines
)

var engineNames = [...]string{"fm-index", "hash-index", "kmc", "pre-align", "graph", "db-search"}

// String names the engine.
func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// ComputeCycles returns the per-step PE latency in DRAM cycles (§VI-A).
func (e Engine) ComputeCycles() int {
	switch e {
	case EngineFMIndex:
		return 16
	case EngineHashIndex:
		return 10
	case EngineKMC:
		return 59
	case EnginePreAlign:
		return 82
	case EngineGraph:
		// Frontier-expansion bookkeeping per edge batch (§V extension;
		// sized like the hash engine's simple integer path).
		return 12
	case EngineDB:
		// Key comparison and child selection per B+-tree node.
		return 14
	}
	return 16
}

// Step is one memory access with the compute that precedes it.
type Step struct {
	// Compute is extra PE compute (DRAM cycles) before issuing this access,
	// in addition to the engine's per-step latency.
	Compute uint16
	// Op is the access kind.
	Op Op
	// Space is the logical data structure accessed.
	Space Space
	// Addr is the byte offset within the space.
	Addr uint64
	// Size is the payload size in bytes (the useful data; the fabric decides
	// how many 64 B flits it costs).
	Size uint32
	// Spatial marks data laid out row-contiguously by the data-placement
	// scheme (candidate lists, streaming buffers); the address mapper keeps
	// such accesses within a DRAM row when the placement optimization is on.
	Spatial bool
	// Light marks a continuation access of the same logical operation as
	// the previous step (the second Occ bound of one extension, the later
	// Bloom slots of one k-mer): the PE charges a single pipeline cycle
	// instead of the engine's full per-operation latency.
	Light bool
}

// Task is one schedulable unit: a read (or batch) processed start-to-finish
// by a single PE, suspending while memory operands are outstanding.
type Task struct {
	// Engine is the PE engine kind.
	Engine Engine
	// Steps is the ordered access sequence.
	Steps []Step
}

// Workload is everything the timing phase needs: the task list and the size
// of every address space so the memory-management framework can place them.
type Workload struct {
	// Name labels the workload (e.g. "fm-seeding/Pt").
	Name string
	// Tasks are replayed through the architecture model.
	Tasks []Task
	// SpaceBytes gives the footprint of each space; zero means unused.
	SpaceBytes [NumSpaces]uint64
	// Passes is the number of passes over the input the algorithm makes
	// (NEST-style multi-pass k-mer counting = 2, everything else = 1). It
	// is a label: no timing model reads it. A second pass is modeled by the
	// tasks its builder recorded for it, plus MergeBytes.
	Passes int
	// LocalSpaces marks spaces that the algorithm replicates (or hard-
	// partitions) per processing element, so accesses to them are always
	// local to the PE's DIMM. NEST's multi-pass k-mer counting pays a second
	// input pass precisely to make the Bloom filter local (§IV-D); BEACON-S
	// single-pass counting drops the replication and accesses the shared
	// distributed filter instead.
	LocalSpaces [NumSpaces]bool
	// MergeBytes is extra all-to-all traffic paid once (e.g. merging local
	// Bloom filters into the global filter and redistributing it).
	MergeBytes uint64
}

// PieceBound bounds the placed pieces n of the workload's tasks can have
// out at once, one step each, when every split point of the placement is a
// multiple of hot for non-spatial steps and of spatial for spatial ones
// (memmgmt.Mapper.Granules): the sum of the n largest per-task peaks,
// where a task's peak is the most granule-aligned blocks one of its steps
// touches. Blocks are counted at the largest power of two dividing each
// granule, which every split point is a multiple of too, so counting
// shifts rather than divides. It reads each step once.
func (w *Workload) PieceBound(hot, spatial uint64, n int) int {
	hotShift, spatialShift := bits.TrailingZeros64(hot), bits.TrailingZeros64(spatial)
	var peaks []int // peaks[k]: tasks whose widest step touches k blocks
	for i := range w.Tasks {
		peak := 0
		for _, st := range w.Tasks[i].Steps {
			sh := hotShift
			if st.Spatial {
				sh = spatialShift
			}
			mask := uint64(1)<<sh - 1
			peak = max(peak, int((st.Addr&mask+uint64(st.Size)+mask)>>sh))
		}
		for len(peaks) <= peak {
			peaks = append(peaks, 0)
		}
		peaks[peak]++
	}
	bound := 0
	for k := len(peaks) - 1; k > 0 && n > 0; k-- {
		take := min(peaks[k], n)
		bound += take * k
		n -= take
	}
	return bound
}

// Validate checks internal consistency: every step must reference a space
// with a declared footprint and stay within it.
func (w *Workload) Validate() error {
	if w.Passes < 1 {
		return fmt.Errorf("trace: workload %q has %d passes, want >= 1", w.Name, w.Passes)
	}
	if len(w.Tasks) == 0 {
		return fmt.Errorf("trace: workload %q has no tasks", w.Name)
	}
	for ti := range w.Tasks {
		t := &w.Tasks[ti]
		if t.Engine >= NumEngines {
			return fmt.Errorf("trace: task %d has invalid engine %d", ti, t.Engine)
		}
		for si, st := range t.Steps {
			if st.Space >= NumSpaces {
				return fmt.Errorf("trace: task %d step %d: invalid space %d", ti, si, st.Space)
			}
			if st.Size == 0 {
				return fmt.Errorf("trace: task %d step %d: zero-size access", ti, si)
			}
			if limit := w.SpaceBytes[st.Space]; st.Addr+uint64(st.Size) > limit {
				return fmt.Errorf("trace: task %d step %d: access [%d,%d) exceeds %s space of %d bytes",
					ti, si, st.Addr, st.Addr+uint64(st.Size), st.Space, limit)
			}
		}
	}
	return nil
}

// TotalSteps returns the number of memory steps across all tasks.
func (w *Workload) TotalSteps() int {
	n := 0
	for i := range w.Tasks {
		n += len(w.Tasks[i].Steps)
	}
	return n
}

// TotalBytes returns the useful payload bytes moved across all steps.
func (w *Workload) TotalBytes() uint64 {
	var n uint64
	for i := range w.Tasks {
		for _, s := range w.Tasks[i].Steps {
			n += uint64(s.Size)
		}
	}
	return n
}

// FootprintBytes returns the summed footprint of all spaces.
func (w *Workload) FootprintBytes() uint64 {
	var n uint64
	for _, b := range w.SpaceBytes {
		n += b
	}
	return n
}
