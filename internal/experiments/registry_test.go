package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/resultcache"
)

func TestRegistryNamesAndDefaults(t *testing.T) {
	names := Experiments()
	if len(names) != len(registry) {
		t.Fatalf("Experiments() returned %d names, registry has %d", len(names), len(registry))
	}
	for _, want := range []string{"latency", "alloc", "locks", "barriers", "compare",
		"ep", "cg", "cgpoststore", "is", "sp", "spopts", "bt", "qlocks", "saturation", "capacity", "faults"} {
		r, ok := LookupExperiment(want)
		if !ok {
			t.Fatalf("experiment %q not registered", want)
		}
		if r.Name != want {
			t.Errorf("runner %q has Name %q", want, r.Name)
		}
		if r.Describe == "" {
			t.Errorf("runner %q has no description", want)
		}
		cfg := r.New()
		if cfg == nil {
			t.Fatalf("%s: New returned nil", want)
		}
		if _, err := r.CanonicalConfig(cfg); err != nil {
			t.Errorf("%s: default config does not canonicalize: %v", want, err)
		}
	}
	if _, ok := LookupExperiment("npb"); ok {
		t.Error("npb should not be registered (CLI-only presentation command)")
	}
}

func TestDecodeConfigStrictAndCanonical(t *testing.T) {
	r, _ := LookupExperiment("latency")

	// Unknown fields must be rejected, not silently dropped.
	if _, err := r.DecodeConfig([]byte(`{"Cellz": 8}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Empty body yields the defaults.
	cfg, err := r.DecodeConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	canonDefault, err := r.CanonicalConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A submitted config that only restates a default canonicalizes to
	// different bytes than one that changes it.
	cfg2, err := r.DecodeConfig([]byte(`{"Cells": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	canon2, err := r.CanonicalConfig(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(canonDefault, canon2) {
		t.Error("changed config canonicalized to the default bytes")
	}
	if !strings.Contains(string(canon2), `"Cells":8`) {
		t.Errorf("canonical form lost the override: %s", canon2)
	}
	// The same submitted body always canonicalizes identically.
	cfg3, err := r.DecodeConfig([]byte(`{"Cells": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	canon3, _ := r.CanonicalConfig(cfg3)
	if !bytes.Equal(canon2, canon3) {
		t.Error("identical submissions canonicalized differently")
	}
	// The session field must never leak into the canonical form.
	if strings.Contains(string(canonDefault), "Obs") {
		t.Errorf("canonical config leaks the Obs session field: %s", canonDefault)
	}
	// spopts runs at OptProcs alone, so a processor list is not a field.
	spo, _ := LookupExperiment("spopts")
	if _, err := spo.DecodeConfig([]byte(`{"Procs": [0]}`)); err == nil {
		t.Error("spopts accepted a Procs field it never reads")
	}
}

func TestRegistryRunSmallExperiment(t *testing.T) {
	r, _ := LookupExperiment("alloc")
	cfg, err := r.DecodeConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	sess := obs.NewSession(obs.Options{})
	res, err := r.Run(sess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.(AllocOverheadResult).String(), "Allocation overheads") {
		t.Errorf("unexpected result: %v", res)
	}
	if len(sess.MachineRecords()) == 0 {
		t.Error("run did not record into the provided session")
	}
}

func TestRegistrySweepProgressAndCancel(t *testing.T) {
	r, _ := LookupExperiment("barriers")
	cfg, err := r.DecodeConfig([]byte(`{"Cells": 4, "Procs": [1, 2], "Episodes": 2, "Algorithms": ["counter"]}`))
	if err != nil {
		t.Fatal(err)
	}
	sess := obs.NewSession(obs.Options{})
	if _, err := r.Run(sess, cfg); err != nil {
		t.Fatal(err)
	}
	done, total := sess.Progress()
	if done != 2 || total != 2 {
		t.Errorf("progress = %d/%d, want 2/2", done, total)
	}

	// A cancelled session aborts the sweep before its next point.
	cancelled := obs.NewSession(obs.Options{})
	cancelled.Cancel()
	cfg2, _ := r.DecodeConfig([]byte(`{"Cells": 4, "Procs": [1, 2], "Episodes": 2, "Algorithms": ["counter"]}`))
	if _, err := r.Run(cancelled, cfg2); err == nil {
		t.Error("cancelled session did not abort the sweep")
	}
}

// TestCanonicalDefaultsGolden pins every registered experiment's
// canonical default config and its result-cache key: one line per
// entry, "name key json". A change to a config struct that moves these
// bytes silently cold-starts every daemon's cache and splits one result
// across two keys. Regenerate after an intentional change with:
//
//	KSRSIM_UPDATE_GOLDEN=1 go test ./internal/experiments -run CanonicalDefaultsGolden
func TestCanonicalDefaultsGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range Experiments() {
		r, _ := LookupExperiment(name)
		cfg, err := r.DecodeConfig(nil)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := r.CanonicalConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s %s\n", name, resultcache.Key(name, canon), canon)
	}
	got := b.String()
	path := filepath.Join("testdata", "canonical_defaults.txt")
	if os.Getenv("KSRSIM_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with KSRSIM_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("canonical default configs diverged from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
