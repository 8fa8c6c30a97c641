package ndp_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"beacon/internal/baseline"
	"beacon/internal/core"
	"beacon/internal/cxl"
	"beacon/internal/fault"
	"beacon/internal/memmgmt"
	"beacon/internal/ndp"
	"beacon/internal/sim"
	"beacon/internal/trace"
)

// fake is a machine whose primitives log every phase as
// "<phase> @<start cycle> #<engine event>": two phases with the same event
// number ran inline in one event. Every route takes two 5-cycle hops (none
// with noHops), a DRAM access 20 cycles and the RMW arithmetic 3.
type fake struct {
	eng    *sim.Engine
	names  map[cxl.NodeID]string
	log    []string
	noHops bool
	// failPath fails the n-th Path call; failAccess fails the next access
	// with the given error, and Retry allows up to retries re-issues.
	failPath   int
	paths      int
	failAccess error
	retries    int
}

func (f *fake) note(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf(format, args...)+fmt.Sprintf(" #%d", f.eng.Executed()))
}

func (f *fake) walker(flows ndp.Flows) *ndp.Walker {
	return &ndp.Walker{
		Engine: f.eng, Flows: flows, ReqBytes: 16, AckBytes: 4,
		Path: func(from, to cxl.NodeID, useful int) ([]cxl.Hop, int, error) {
			f.note("route %s>%s %dB @%d", f.names[from], f.names[to], useful, f.eng.Now())
			f.paths++
			if f.paths == f.failPath {
				return nil, 0, errors.New("no path")
			}
			if f.noHops {
				return nil, 0, nil
			}
			return []cxl.Hop{cxl.PipeHop(sim.NewPipe("a", 1e9, 4)), cxl.PipeHop(sim.NewPipe("b", 1e9, 4))}, useful, nil
		},
		Access: func(now sim.Cycle, _ memmgmt.PlacedAccess, write bool) (sim.Cycle, error) {
			op := "read"
			if write {
				op = "write"
			}
			f.note("%s @%d", op, now)
			if f.failAccess != nil {
				err := f.failAccess
				f.failAccess = nil
				return 0, err
			}
			return now + 20, nil
		},
		Retry: func(now sim.Cycle, err error, tries int) (sim.Cycles, bool) {
			if !errors.Is(err, fault.ErrUncorrectable) || tries >= f.retries {
				return 0, false
			}
			return sim.Cycles(fault.DefaultProfile().DRAM.RetryBackoffCycles), true
		},
		Atomic: func(now sim.Cycle, at cxl.NodeID, local bool) sim.Cycle {
			where := "remote"
			if local {
				where = "local"
			}
			f.note("atomic %s %s @%d", f.names[at], where, now)
			return now + 3
		},
	}
}

// walkOne serves one 32-byte piece on target from home in an event at
// cycle 0 and returns the phase log, ending in "done" or "fail <err>". It
// also checks that the walk, finished or failed, released its record.
func walkOne(t *testing.T, f *fake, flows ndp.Flows, home, target cxl.NodeID, op trace.Op) []string {
	t.Helper()
	f.eng = sim.NewEngine()
	f.names = map[cxl.NodeID]string{target: "target", cxl.Switch(int(target.Switch)): "switch", home: "home"}
	w := f.walker(flows)
	w.Done = func(_ int32, at sim.Cycle) { f.note("done @%d", at) }
	w.Fail = func(_ int32, err error) { f.note("fail %v @%d", err, f.eng.Now()) }
	pa := memmgmt.PlacedAccess{Node: target, Bytes: 32}
	f.eng.ScheduleAt(f.eng.Now(), func() { w.Walk(0, home, pa, op, 0) })
	if _, err := f.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if slab, free := ndp.WalkRecords(w); slab != 1 || free != 1 {
		t.Errorf("walker slab holds %d records, %d free: want the one record released", slab, free)
	}
	return f.log
}

// TestWalkerEventSeparation pins the walker's rule on every core and
// baseline flow: a route's first hop is inline and every later hop, then
// the next phase, runs in an event at the previous delivery; after a DRAM
// or atomic phase an atomic phase or the end runs inline, anything else in
// a new event at the completion time.
func TestWalkerEventSeparation(t *testing.T) {
	local, remote := cxl.DIMM(0, 0), cxl.DIMM(1, 1)
	localRead := []string{"read @0 #1", "done @20 #1"}
	localWrite := []string{"write @0 #1", "done @20 #1"}
	localRMW := []string{"read @0 #1", "atomic home local @20 #1", "write @23 #2", "done @43 #2"}
	remoteRead := []string{"route home>target 16B @0 #1", "read @10 #3", "route target>home 32B @30 #4", "done @40 #6"}
	remoteWrite := []string{"route home>target 48B @0 #1", "write @10 #3", "route target>home 4B @30 #4", "done @40 #6"}
	cases := []struct {
		name   string
		flows  ndp.Flows
		home   cxl.NodeID
		target cxl.NodeID
		op     trace.Op
		noHops bool
		want   []string
	}{
		{"core local read", core.Flows, local, local, trace.OpRead, false, localRead},
		{"core local write", core.Flows, local, local, trace.OpWrite, false, localWrite},
		{"core local rmw", core.Flows, local, local, trace.OpAtomicRMW, false, localRMW},
		{"core remote read", core.Flows, local, remote, trace.OpRead, false, remoteRead},
		{"core remote write", core.Flows, local, remote, trace.OpWrite, false, remoteWrite},
		{"core remote rmw (Fig. 7)", core.Flows, local, remote, trace.OpAtomicRMW, false, []string{
			"route home>switch 16B @0 #1", "route switch>target 16B @10 #3", "read @20 #5",
			"route target>switch 32B @40 #6", "atomic switch remote @50 #8",
			"route switch>target 32B @53 #9", "write @63 #11", "route switch>home 4B @83 #12", "done @93 #14",
		}},
		// A switch home (BEACON-S) over its own DIMM: the home<->switch
		// routes have equal endpoints, so they skip Path and run inline.
		{"core remote rmw from the target's switch", core.Flows, cxl.Switch(1), remote, trace.OpAtomicRMW, false, []string{
			"route home>target 16B @0 #1", "read @10 #3", "route target>home 32B @30 #4",
			"atomic home remote @40 #6", "route home>target 32B @43 #7", "write @53 #9", "done @73 #10",
		}},
		// An ideal interconnect has no hops: routes run inline but still
		// call Path, which counts the message.
		{"core remote read, no hops", core.Flows, local, remote, trace.OpRead, true, []string{
			"route home>target 16B @0 #1", "read @0 #1", "route target>home 32B @20 #2", "done @20 #2",
		}},
		{"ddr local read", baseline.Flows, local, local, trace.OpRead, false, localRead},
		{"ddr local write", baseline.Flows, local, local, trace.OpWrite, false, localWrite},
		{"ddr local rmw", baseline.Flows, local, local, trace.OpAtomicRMW, false, localRMW},
		{"ddr remote read", baseline.Flows, local, remote, trace.OpRead, false, remoteRead},
		{"ddr remote write", baseline.Flows, local, remote, trace.OpWrite, false, remoteWrite},
		{"ddr remote rmw", baseline.Flows, local, remote, trace.OpAtomicRMW, false, []string{
			"route home>target 48B @0 #1", "read @10 #3", "atomic target remote @30 #3", "write @33 #4",
			"route target>home 4B @53 #5", "done @63 #7",
		}},
	}
	for _, c := range cases {
		got := walkOne(t, &fake{noHops: c.noHops}, c.flows, c.home, c.target, c.op)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestWalkerRetryAddsOneEvent pins the DRAM retry: one uncorrectable error
// and then a success costs exactly one extra event, at t plus the backoff.
func TestWalkerRetryAddsOneEvent(t *testing.T) {
	backoff := fault.DefaultProfile().DRAM.RetryBackoffCycles
	f := &fake{failAccess: fmt.Errorf("dimm: %w", fault.ErrUncorrectable), retries: 1}
	got := walkOne(t, f, core.Flows, cxl.DIMM(0, 0), cxl.DIMM(0, 0), trace.OpRead)
	want := []string{"read @0 #1", fmt.Sprintf("read @%d #2", backoff), fmt.Sprintf("done @%d #2", backoff+20)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q\nwant %q", got, want)
	}
	if n := f.eng.Executed(); n != 2 {
		t.Errorf("executed %d events, want 2", n)
	}
}

// TestWalkerFailsOnce pins that a mid-flow failure calls fail exactly once
// and never reaches the continuation.
func TestWalkerFailsOnce(t *testing.T) {
	cases := []struct {
		name string
		f    *fake
		want []string
	}{
		{"path", &fake{failPath: 2}, []string{
			"route home>switch 16B @0 #1", "route switch>target 16B @10 #3", "fail no path @10 #3",
		}},
		{"dram, not retryable", &fake{failAccess: errors.New("bad"), retries: 8}, []string{
			"route home>switch 16B @0 #1", "route switch>target 16B @10 #3", "read @20 #5", "fail bad @20 #5",
		}},
	}
	for _, c := range cases {
		got := walkOne(t, c.f, core.Flows, cxl.DIMM(0, 0), cxl.DIMM(1, 1), trace.OpAtomicRMW)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
}

// TestWalkerInterleavedTags starts overlapping walks, local and remote, of
// every op and checks that each reports to its own tag exactly once, at
// the time it would take alone, and that the slab grows only to the peak
// number in flight and ends with every record free.
func TestWalkerInterleavedTags(t *testing.T) {
	f := &fake{eng: sim.NewEngine()}
	home := cxl.DIMM(0, 0)
	f.names = map[cxl.NodeID]string{}
	w := f.walker(core.Flows)
	// Alone, each piece takes its flow's length from TestWalkerEventSeparation.
	alone := map[trace.Op][2]sim.Cycle{ // [local, remote]
		trace.OpRead: {20, 40}, trace.OpWrite: {20, 40}, trace.OpAtomicRMW: {43, 93},
	}
	const walks = 24
	var want [walks]sim.Cycle
	got := map[int32][]sim.Cycle{}
	w.Done = func(tag int32, at sim.Cycle) { got[tag] = append(got[tag], at) }
	w.Fail = func(tag int32, err error) { t.Errorf("tag %d failed: %v", tag, err) }
	for i := 0; i < walks; i++ {
		tag, start := int32(100+i), sim.Cycle(3*i)
		op := trace.Op(i % 3)
		target, remote := home, i%2
		if remote == 1 {
			target = cxl.DIMM(1, 1)
		}
		want[i] = start + alone[op][remote]
		pa := memmgmt.PlacedAccess{Node: target, Bytes: 32}
		f.eng.ScheduleAt(start, func() { w.Walk(start, home, pa, op, tag) })
	}
	if _, err := f.eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range want {
		tag := int32(100 + i)
		if g := got[tag]; len(g) != 1 || g[0] != at {
			t.Errorf("tag %d reported %v, want once at %d", tag, g, at)
		}
	}
	if len(got) != walks {
		t.Errorf("%d tags reported, want %d", len(got), walks)
	}
	slab, free := ndp.WalkRecords(w)
	if slab != free || slab < 2 || slab >= walks {
		t.Errorf("slab holds %d records, %d free: want 2..%d, all free", slab, free, walks-1)
	}
}

// TestWalkerReusesOneRecord checks that 1,000 sequential walks of every
// op, local and remote, each started from the previous one's report,
// reuse one record. (walkOne checks that a failing Path, a failing Access
// and a retry that then succeeds each release theirs.)
func TestWalkerReusesOneRecord(t *testing.T) {
	f := &fake{eng: sim.NewEngine(), names: map[cxl.NodeID]string{}}
	w := f.walker(core.Flows)
	home := cxl.DIMM(0, 0)
	const walks = 1000
	done := 0
	var next func(t sim.Cycle)
	next = func(t sim.Cycle) {
		if done == walks {
			return
		}
		target := home
		if done%2 == 1 {
			target = cxl.DIMM(1, 1)
		}
		w.Walk(t, home, memmgmt.PlacedAccess{Node: target, Bytes: 32}, trace.Op(done%3), int32(done))
	}
	w.Done = func(tag int32, at sim.Cycle) {
		if int(tag) != done {
			t.Fatalf("walk %d reported tag %d", done, tag)
		}
		done++
		next(at)
	}
	w.Fail = func(_ int32, err error) { t.Fatal(err) }
	f.eng.ScheduleAt(f.eng.Now(), func() { next(0) })
	if _, err := f.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if done != walks {
		t.Fatalf("%d walks done, want %d", done, walks)
	}
	if slab, free := ndp.WalkRecords(w); slab != 1 || free != 1 {
		t.Errorf("after %d sequential walks the slab holds %d records, %d free; want 1, 1", walks, slab, free)
	}
}
