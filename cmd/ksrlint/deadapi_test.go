package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadapiNeedsWholeModule builds ksrlint and runs it over a
// throwaway module whose internal package exports a function only its
// test calls. The standalone driver on ./... loads the whole module and
// reports it; a partial pattern and the go vet driver cannot know what
// the rest of the module references, so they report nothing.
func TestDeadapiNeedsWholeModule(t *testing.T) {
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "ksrlint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ksrlint: %v\n%s", err, out)
	}
	mod := filepath.Join(tmp, "m")
	for name, src := range map[string]string{
		"go.mod":                   "module example.test/m\n\ngo 1.22\n",
		"internal/lib/lib.go":      "package lib\n\nfunc Used() int { return 1 }\n\nfunc TestOnly() int { return 2 }\n",
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestLib(t *testing.T) { TestOnly() }\n",
		"app/app.go":               "package app\n\nimport \"example.test/m/internal/lib\"\n\nvar N = lib.Used()\n",
	} {
		path := filepath.Join(mod, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	run := func(name string, args ...string) (string, error) {
		cmd := exec.Command(name, args...)
		cmd.Dir = mod
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := run(bin, "./...")
	if err == nil || !strings.Contains(out, "ksrlint/deadapi: exported func TestOnly") ||
		strings.Contains(out, "func Used") {
		t.Errorf("whole-module run: err=%v, want exactly the TestOnly finding:\n%s", err, out)
	}
	if out, err := run(bin, "./internal/lib"); err != nil || out != "" {
		t.Errorf("partial-pattern run: err=%v, want no findings:\n%s", err, out)
	}
	if out, err := run("go", "vet", "-vettool="+bin, "./..."); err != nil || strings.Contains(out, "deadapi") {
		t.Errorf("go vet driver: err=%v, want no findings:\n%s", err, out)
	}
}
