// Package tool sits outside internal/, where the check does not apply.
package tool

// Unreferenced is exported and unused, but other modules may import it.
func Unreferenced() {}
