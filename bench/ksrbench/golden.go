package main

import (
	_ "embed"
	"encoding/json"
	"strconv"
)

// goldenJSON holds the default seed and pins, for it and for a held-out
// seed, the digest of one round of each workload at full size. A digest
// covers only simulated outputs, so a change that means to speed the
// simulator up without changing what it computes must leave every
// digest as is.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	DefaultSeed uint64                       `json:"default_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error())
	}
	return g
}()

// goldenDigest returns the committed digest for (workload, seed).
func goldenDigest(workload string, seed uint64) (string, bool) {
	d, ok := golden.Digests[workload][strconv.FormatUint(seed, 10)]
	return d, ok && d != ""
}
