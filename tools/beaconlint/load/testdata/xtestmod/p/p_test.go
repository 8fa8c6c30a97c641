package p_test

import (
	"example.com/xtestmod/p"
	"example.com/xtestmod/q"
)

// The go command recompiles q against p's test variant, so q.V is a p.T
// here; a loader that imported q from export data would reject this.
var _ p.T = q.V
