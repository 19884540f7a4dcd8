package lib

import "testing"

// ExportedHelper is declared in a test file, which the check skips.
func ExportedHelper() {}

func TestLib(t *testing.T) {
	TestOnly()
	Recurse(Limit)
	Dead{}.Touch()
	new(Thing).Unused()
	Kept()
	ExportedHelper()
}
