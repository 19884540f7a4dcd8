// Package all registers every ksrlint analyzer, in reporting order.
package all

import (
	"repro/internal/lint/analysis"
	"repro/internal/lint/analyzers/canonicaljson"
	"repro/internal/lint/analyzers/deadapi"
	"repro/internal/lint/analyzers/determinism"
	"repro/internal/lint/analyzers/errnopanic"
	"repro/internal/lint/analyzers/hookcheck"
	"repro/internal/lint/analyzers/hotalloc"
	"repro/internal/lint/analyzers/lockorder"
	"repro/internal/lint/analyzers/simprocess"
	"repro/internal/lint/analyzers/timedomain"
)

// Analyzers is the full ksrlint suite.
var Analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	hookcheck.Analyzer,
	simprocess.Analyzer,
	canonicaljson.Analyzer,
	hotalloc.Analyzer,
	lockorder.Analyzer,
	timedomain.Analyzer,
	errnopanic.Analyzer,
	deadapi.Analyzer,
}
