// Package q depends on package p.
package q

import "example.com/xtestmod/p"

// V is a p.T built outside p.
var V = p.T{N: 1}
