// Package lib declares exported identifiers that the fixture's non-test
// files use, that only its test file uses, and that nothing uses.
package lib

// Used is called from the sibling package user.
func Used() int { return Limit2 }

// TestOnly is called only from lib_test.go.
func TestOnly() {} // want `exported func TestOnly has no reference outside tests`

// Recurse calls only itself, which does not keep it alive.
func Recurse(n int) int { // want `exported func Recurse`
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Dead is a type only the test file names; its method's receiver does
// not keep it alive.
type Dead struct{} // want `exported type Dead`

// Touch is referenced only by the test file.
func (Dead) Touch() {} // want `exported method Dead.Touch`

// Limit is a constant only the test file reads.
const Limit = 3 // want `exported const Limit`

// Limit2 is read by Used.
const Limit2 = 4

// Thing is built by user, which never calls Unused.
type Thing struct{}

// Unused is never called.
func (*Thing) Unused() {} // want `exported method Thing.Unused`

// String is reached by fmt through fmt.Stringer, outside the module.
func (*Thing) String() string { return "thing" }

// Shape is an interface that user calls Area through.
type Shape interface {
	Area() int
	Perimeter() int // want `exported interface method Shape.Perimeter`
}

// Square implements Shape; nothing calls its methods directly.
type Square struct{ Side int }

// Area is reached through Shape.Area, which user calls.
func (s Square) Area() int { return s.Side * s.Side }

// Perimeter is reached through no interface call and no direct call.
func (s Square) Perimeter() int { return 4 * s.Side } // want `exported method Square.Perimeter`

// Kept has no non-test reference, but its directive gives a reason.
//
//lint:ignore ksrlint/deadapi kept for the fixture's suppression case
func Kept() {}
