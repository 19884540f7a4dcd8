// Package user is the non-test code of the fixture module that keeps
// lib's API alive.
package user

import "internal/lib"

func run() int {
	var s lib.Shape = lib.Square{Side: 2}
	_ = &lib.Thing{}
	return lib.Used() + s.Area()
}
