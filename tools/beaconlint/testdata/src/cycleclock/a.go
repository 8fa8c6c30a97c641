// Package cclock exercises the cycleclock analyzer: discarded Engine.Run
// errors and zero-value engines are diagnosed.
package cclock

import "beacon/internal/sim"

func bad(e *sim.Engine) {
	e.Run()              // want `error result of \(\*sim\.Engine\)\.Run discarded`
	defer e.Run()        // want `error result of \(\*sim\.Engine\)\.Run discarded`
	cycles, _ := e.Run() // want `error result of \(\*sim\.Engine\)\.Run assigned to the blank identifier`
	_ = cycles
}

func good(e *sim.Engine) (sim.Cycle, error) {
	e.ScheduleAt(e.Now()+5, func() {})
	if _, err := e.Run(); err != nil { // error checked: no diagnostic
		return 0, err
	}
	return e.Run() // results propagate to the caller: no diagnostic
}

// Zero-value construction: the engine's pending-event queue only exists
// after sim.NewEngine, the only constructor, so every zero-value path is
// diagnosed.

var pkgLevelEngine sim.Engine // want `variable declared with value type sim\.Engine`

type machine struct {
	eng sim.Engine // want `struct field with value type sim\.Engine`
}

type machineOK struct {
	eng *sim.Engine // pointer field filled by NewEngine: no diagnostic
}

func zeroValueConstruction() {
	var e sim.Engine        // want `variable declared with value type sim\.Engine`
	_ = &sim.Engine{}       // want `sim\.Engine composite literal`
	_ = new(sim.Engine)     // want `new\(sim\.Engine\) builds an unusable zero-value engine`
	ok := sim.NewEngine()   // constructor: no diagnostic
	var okPtr *sim.Engine   // pointer variable: no diagnostic
	okPtr = sim.NewEngine() // assignment of a constructed engine: no diagnostic
	_, _, _, _ = e, ok, okPtr, pkgLevelEngine
}
