// Package facts is ksrlint's interprocedural layer: per-function
// summaries ("does it allocate? which locks does it take, in what
// order? can it block or panic? does it launder time-domain values?")
// computed bottom-up over the call graph with a fixpoint across
// recursion cycles, and carried between packages so an analyzer looking
// at one package can reason about calls into another.
//
// The design follows the go/analysis facts model but stays inside the
// standard library: a Summary is plain data keyed by a stable function
// key ("pkg/path.Func", "(pkg/path.Recv).Method" with pointers
// stripped), serialized as canonical JSON so the same bytes flow
// through go vet's .vetx plumbing, the standalone driver, and the
// analysistest fixture loader. Positions cross package boundaries as
// pre-rendered "file:line:col" strings: diagnostics always anchor at a
// position in the package under analysis and quote foreign positions
// in their message.
//
// Function annotations recognized in doc comments:
//
//	//ksr:hotpath         body and transitive callees must not allocate
//	//ksr:coldpath        termination/diagnostic route; exempt from the
//	                      hot-path allocation budget
//	//ksr:timebridge      blessed wall-clock <-> simulated-time crossing
//	//ksr:untrusted-input decodes external bytes; must return errors,
//	                      never panic, on malformed data
package facts

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// Key names one function, stably across processes and load mechanisms:
// "pkg/path.Func" for package functions, "(pkg/path.Type).Method" for
// methods (pointer receivers are normalized away).
type Key string

// KeyOf derives the stable key for fn. Generic functions map to their
// origin, so every instantiation shares one summary.
func KeyOf(fn *types.Func) Key {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return Key(strings.ReplaceAll(fn.FullName(), "*", ""))
}

// Site is one position of interest in another (or the same) package,
// with its position pre-rendered so it survives serialization.
type Site struct {
	Pos  string `json:"pos,omitempty"`
	What string `json:"what,omitempty"`
}

// LockEdge records "To was acquired while From was held". Via names the
// callee that performs the acquisition when the edge crosses a call.
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	Pos  string `json:"pos,omitempty"`
	Via  string `json:"via,omitempty"`
}

// Summary is the interprocedural fact record for one function. The
// boolean effect bits are monotone (they only turn on), which is what
// makes the SCC fixpoint in Build converge; each bit carries one
// representative site and the call chain that reaches it.
type Summary struct {
	// Annotations (from the function's doc comment).
	Hot        bool `json:"hot,omitempty"`
	Cold       bool `json:"cold,omitempty"`
	TimeBridge bool `json:"timebridge,omitempty"`
	Untrusted  bool `json:"untrusted,omitempty"`

	// Allocates: the function allocates on a non-cold path, directly or
	// through a callee. Chain entries are callee keys from this function
	// down to (and including) the one with the direct site.
	Allocates  bool     `json:"allocates,omitempty"`
	Alloc      Site     `json:"alloc,omitempty"`
	AllocChain []string `json:"alloc_chain,omitempty"`

	// Panics: a panic statement is reachable from the function body.
	Panics     bool     `json:"panics,omitempty"`
	Panic      Site     `json:"panic,omitempty"`
	PanicChain []string `json:"panic_chain,omitempty"`

	// Risky: the function (or a callee) performs a decode-path hazard —
	// a single-form type assertion or an allocation sized by an
	// unclamped non-constant — that turns malformed input into a panic.
	Risky     bool     `json:"risky,omitempty"`
	Risk      Site     `json:"risk,omitempty"`
	RiskChain []string `json:"risk_chain,omitempty"`

	// Acquires lists every lock class this function may take, directly
	// or transitively. Edges are the acquired-while-holding pairs
	// observed in (or through) its body.
	Acquires []string   `json:"acquires,omitempty"`
	Edges    []LockEdge `json:"edges,omitempty"`

	// Blocks: the function may park indefinitely — a channel operation,
	// select without default, sync.Cond.Wait, or known blocking I/O —
	// directly or through a callee. Lock/Unlock is deliberately not
	// counted (the cycle analysis covers lock-on-lock waits).
	Blocks     bool     `json:"blocks,omitempty"`
	Block      Site     `json:"block,omitempty"`
	BlockChain []string `json:"block_chain,omitempty"`

	// Per-result time-domain classification for functions returning
	// plain integers: true when the result is nanoseconds derived from
	// the wall clock (WallNs) or from simulated time (SimNs).
	WallNs []bool `json:"wall_ns,omitempty"`
	SimNs  []bool `json:"sim_ns,omitempty"`
}

// PackageFacts is every summary computed for one package, the unit of
// serialization (one .vetx payload, one store merge).
type PackageFacts struct {
	Path  string           `json:"path"`
	Funcs map[Key]*Summary `json:"funcs"`
}

// Encode renders pf as deterministic JSON (encoding/json sorts map
// keys), the payload written to go vet's .vetx files.
func (pf *PackageFacts) Encode() ([]byte, error) {
	return json.Marshal(pf)
}

// DecodePackage parses an Encode payload. Empty input yields nil, not
// an error: a factless .vetx (from a package outside the module) is a
// normal artifact, not corruption.
func DecodePackage(b []byte) (*PackageFacts, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var pf PackageFacts
	if err := json.Unmarshal(b, &pf); err != nil {
		return nil, fmt.Errorf("facts: decoding package facts: %w", err)
	}
	return &pf, nil
}

// Store accumulates summaries across packages: the current package plus
// everything imported (transitively) that was analyzed before it.
type Store struct {
	funcs map[Key]*Summary
}

func NewStore() *Store {
	return &Store{funcs: make(map[Key]*Summary)}
}

// Add merges pf into the store. Re-adding a package (a test variant of
// an already-loaded package) overwrites function-by-function; keys are
// stable so the summaries agree.
func (s *Store) Add(pf *PackageFacts) {
	if pf == nil {
		return
	}
	for k, sum := range pf.Funcs {
		s.funcs[k] = sum
	}
}

// ByKey returns the summary for k, or nil.
func (s *Store) ByKey(k Key) *Summary {
	if s == nil {
		return nil
	}
	return s.funcs[k]
}

// Lookup resolves obj to its summary, or nil when obj is not a function
// or has no facts (stdlib, unanalyzed package).
func (s *Store) Lookup(obj types.Object) *Summary {
	fn, ok := obj.(*types.Func)
	if !ok || s == nil {
		return nil
	}
	return s.funcs[KeyOf(fn)]
}

// AllEdges returns every lock-order edge known to the store, sorted by
// (From, To, Pos) so graph construction is deterministic.
func (s *Store) AllEdges() []LockEdge {
	if s == nil {
		return nil
	}
	var out []LockEdge
	for _, sum := range s.funcs {
		out = append(out, sum.Edges...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
	return out
}

// --- stdlib assumption tables ---------------------------------------
//
// The engine never loads standard-library bodies; calls out of the
// module are classified by these tables. The allocation default is
// conservative (unknown stdlib calls are assumed to allocate: a hot
// path has no business calling them), while blocking and panicking
// default to false (stdlib overwhelmingly returns errors, and the
// blocking list below covers what the repro tree actually calls).

// purePkgs: every exported function is allocation-free.
var purePkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
	"unsafe":      true,
}

// pureFuncs: allocation-free by key (pointer receivers stripped, as in
// KeyOf). sync primitives are here so lock discipline — not the
// allocator — decides whether they belong on a hot path.
var pureFuncs = map[string]bool{
	"(sync.Mutex).Lock":      true,
	"(sync.Mutex).Unlock":    true,
	"(sync.Mutex).TryLock":   true,
	"(sync.RWMutex).Lock":    true,
	"(sync.RWMutex).Unlock":  true,
	"(sync.RWMutex).RLock":   true,
	"(sync.RWMutex).RUnlock": true,
	"(sync.WaitGroup).Add":   true,
	"(sync.WaitGroup).Done":  true,
	"(sync.WaitGroup).Wait":  true,
	"(sync.Cond).Wait":       true,
	"(sync.Cond).Signal":     true,
	"(sync.Cond).Broadcast":  true,
	"(sync.Pool).Get":        true, // pool hit; the miss path is the New func
	"(sync.Pool).Put":        true,
	"runtime.Goexit":         true,
	"runtime.Gosched":        true,
	"sort.SearchInts":        true,
	"sort.SearchFloat64s":    true,
	"sort.SearchStrings":     true,
	"sort.Sort":              true, // in-place; a *T receiver boxes without allocating
	"sort.Stable":            true,

	"(time.Time).UnixNano":        true,
	"(time.Time).Sub":             true,
	"(time.Duration).Nanoseconds": true,
	"time.Since":                  true,
	"time.Now":                    true,
}

// blockingFuncs: may park the goroutine indefinitely or perform
// syscall-latency I/O. Holding a lock across any of these is a stall
// (or deadlock) risk the lockorder analyzer reports.
var blockingFuncs = map[string]bool{
	"time.Sleep":            true,
	"(sync.WaitGroup).Wait": true,
	"(os.File).Sync":        true,
	"(os.File).Write":       true,
	"(os.File).Read":        true,
	"(os.File).ReadAt":      true,
	"(os.File).WriteAt":     true,
	"(os.File).Close":       true,
	"os.Open":               true,
	"os.Create":             true,
	"os.OpenFile":           true,
	"os.ReadFile":           true,
	"os.WriteFile":          true,
	"os.Rename":             true,
	"os.Remove":             true,
	"os.RemoveAll":          true,
	"os.Chtimes":            true,
	"os.ReadDir":            true,
	"os.MkdirAll":           true,
	"io.Copy":               true,
	"io.ReadAll":            true,
	"(bufio.Writer).Flush":  true,
	"(net/http.Client).Do":  true,
	"(os/exec.Cmd).Run":     true,
	"(os/exec.Cmd).Wait":    true,
	"(os/exec.Cmd).Output":  true,
}

// panicFuncs: stdlib entry points whose contract is to panic.
var panicFuncs = map[string]bool{
	"regexp.MustCompile":        true,
	"text/template.Must":        true,
	"html/template.Must":        true,
	"(reflect.Value).Interface": true,
}

// inModule reports whether path belongs to the analyzed module: facts
// exist (or will exist) for it. Everything else goes through the
// assumption tables.
func inModule(path string) bool {
	// The repro module is self-contained: no external dependencies, so
	// "not standard library" is exactly "has facts". Fixture packages
	// (single-segment paths like "sim", "jobq/a") also land here because
	// stdlib calls always resolve through real import paths.
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// stdKey renders fn the way the tables above spell it.
func stdKey(fn *types.Func) string {
	return string(KeyOf(fn))
}

// StdAllocates classifies a call out of the module: true unless the
// table proves the callee allocation-free.
func StdAllocates(fn *types.Func) bool {
	if fn.Pkg() != nil && purePkgs[fn.Pkg().Path()] {
		return false
	}
	return !pureFuncs[stdKey(fn)]
}

// StdBlocks reports whether a call out of the module may block.
func StdBlocks(fn *types.Func) bool { return blockingFuncs[stdKey(fn)] }

// StdPanics reports whether a call out of the module panics by contract.
func StdPanics(fn *types.Func) bool { return panicFuncs[stdKey(fn)] }
