// Package p declares a type that package q hands back to p's external
// tests.
package p

// T is a value package q exports.
type T struct{ N int }
