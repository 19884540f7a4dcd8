package main

import "testing"

func TestEmitBothModes(t *testing.T) {
	// Regression: emit must terminate in both modes (a refactor once made
	// the text path recurse into itself).
	type payload struct{ A int }
	old := jsonOut
	defer func() { jsonOut = old }()
	jsonOut = false
	emit(payload{1}) // must not recurse
	jsonOut = true
	emit(payload{2})
}
