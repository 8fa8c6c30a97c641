// Package cclock exercises the cycleclock analyzer: constant negative
// delays and discarded Engine.Run/RunUntil errors are diagnosed.
package cclock

import "beacon/internal/sim"

const lookback = 3

func bad(e *sim.Engine) {
	e.Schedule(-5, func() {})        // want `negative delay -5 passed to \(\*sim\.Engine\)\.Schedule`
	e.Schedule(-lookback, func() {}) // want `negative delay -3 passed to \(\*sim\.Engine\)\.Schedule`
	e.Run()                          // want `error result of \(\*sim\.Engine\)\.Run discarded`
	e.RunUntil(100)                  // want `error result of \(\*sim\.Engine\)\.RunUntil discarded`
	cycles, _ := e.Run()             // want `error result of \(\*sim\.Engine\)\.Run assigned to the blank identifier`
	_ = cycles
}

func good(e *sim.Engine) (sim.Cycle, error) {
	e.Schedule(5, func() {})
	e.Schedule(0, func() {})
	if _, err := e.RunUntil(50); err != nil { // error checked: no diagnostic
		return 0, err
	}
	return e.Run() // results propagate to the caller: no diagnostic
}

func variableDelayOK(e *sim.Engine, d sim.Cycles) {
	// Non-constant delays are the engine's runtime panic to enforce.
	e.Schedule(d, func() {})
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
