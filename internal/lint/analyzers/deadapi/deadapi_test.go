package deadapi_test

import (
	"testing"

	"repro/internal/lint/analysistest"
	"repro/internal/lint/analyzers/deadapi"
)

func TestDeadapi(t *testing.T) {
	analysistest.Run(t, "testdata", deadapi.Analyzer, "internal/lib", "internal/user", "cmd/tool")
}
