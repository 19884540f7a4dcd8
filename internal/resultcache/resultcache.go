// Package resultcache is ksrsimd's content-addressed experiment result
// cache. The simulator is deterministic by construction — identical
// machine config, experiment parameters, seed, and fault plan produce
// byte-identical results — so a result can be addressed purely by a
// SHA-256 of the experiment name and its canonical config JSON and
// replayed forever. Characterization sweeps get re-run endlessly with
// the same parameters; memoizing them turns the nth run into a map
// lookup.
//
// The cache is an LRU bounded by total entry bytes, safe for concurrent
// use, with optional on-disk persistence (one JSON file per entry, keyed
// by the content hash, so a daemon restart starts warm). Counters track
// hits, misses, stores, and evictions for the /v1/stats endpoint.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Key computes the content address for one experiment execution: the
// hex SHA-256 of a versioned preimage covering the experiment name and
// its canonical config JSON (which embeds machine kind, cells, seeds,
// and fault plans — everything that determines the output bytes).
func Key(experiment string, canonicalConfig []byte) string {
	h := sha256.New()
	h.Write([]byte("ksrsimd/cachekey/v1\x00"))
	h.Write([]byte(experiment))
	h.Write([]byte{0})
	h.Write(canonicalConfig)
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one cached execution: the identifying inputs plus every
// output artifact a job response needs, stored as raw bytes so repeat
// responses are byte-identical to the first.
type Entry struct {
	Key        string          `json:"key"`
	Experiment string          `json:"experiment"`
	Config     json.RawMessage `json:"config"`             // canonical form
	Result     json.RawMessage `json:"result"`             // marshaled result struct
	Text       string          `json:"text,omitempty"`     // rendered table/figure
	Manifest   json.RawMessage `json:"manifest,omitempty"` // run manifest of the producing job
	CreatedAt  string          `json:"created_at,omitempty"`
}

// size is the entry's accounting cost: the length of its serialized
// form, which is also exactly what persistence writes.
func (e *Entry) size() int64 {
	b, err := json.Marshal(e)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// Stats is a point-in-time snapshot of the cache.
type Stats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	Persisted bool   `json:"persisted"`
}

type node struct {
	entry *Entry
	size  int64
}

// Cache is the LRU. The zero value is not usable; call Open.
type Cache struct {
	mu    sync.Mutex
	dir   string // "" = memory-only
	max   int64
	ll    *list.List // front = most recent
	byKey map[string]*list.Element
	bytes int64

	hits, misses, stores, evictions uint64
}

// Open creates a cache bounded to maxBytes of serialized entries. When
// dir is non-empty, entries persist there (one <key>.json file each)
// and any existing files are loaded back, oldest-modified first, so the
// LRU order survives a restart. Unreadable or corrupt files are skipped
// — a cache must never refuse to start over stale state.
//
//ksr:untrusted-input
func Open(dir string, maxBytes int64) (*Cache, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("resultcache: max bytes must be positive (got %d)", maxBytes)
	}
	c := &Cache{
		dir:   dir,
		max:   maxBytes,
		ll:    list.New(),
		byKey: make(map[string]*list.Element),
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	type onDisk struct {
		entry *Entry
		mod   time.Time
	}
	var found []onDisk
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if !de.IsDir() && strings.HasPrefix(name, "tmp-") {
			// Leftover from a crash mid-save: the rename never happened,
			// so the file is garbage by definition.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		// Strict decode: an entry with unknown fields was written by a
		// different schema and must not be half-loaded into this cache.
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var e Entry
		if dec.Decode(&e) != nil || e.Key == "" || e.Key != strings.TrimSuffix(name, ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, onDisk{entry: &e, mod: info.ModTime()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod.Before(found[j].mod) })
	for _, od := range found {
		for _, p := range c.insert(od.entry) {
			_ = os.Remove(p)
		}
	}
	// Loading counts neither as stores nor misses.
	c.stores, c.evictions = 0, 0
	return c, nil
}

// Get returns the entry for key and whether it was present, promoting
// it to most-recently-used on a hit.
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	n := el.Value.(*node)
	stamp := ""
	if c.dir != "" {
		stamp = c.path(key)
	}
	c.mu.Unlock()
	if stamp != "" {
		// Best-effort recency stamp so LRU order survives restarts,
		// done after unlocking so concurrent hits don't serialize on
		// a utimensat syscall.
		now := time.Now()
		_ = os.Chtimes(stamp, now, now)
	}
	return n.entry, true
}

// Put stores e (replacing any previous entry under the same key) and
// evicts least-recently-used entries until the cache fits its byte cap.
// An entry larger than the whole cap is rejected.
func (c *Cache) Put(e *Entry) error {
	if e == nil || e.Key == "" {
		return fmt.Errorf("resultcache: entry missing key")
	}
	sz := e.size()
	if sz > c.max {
		return fmt.Errorf("resultcache: entry %s (%d bytes) exceeds cache cap %d", e.Key[:12], sz, c.max)
	}
	c.mu.Lock()
	if el, ok := c.byKey[e.Key]; ok {
		c.ll.Remove(el)
		delete(c.byKey, e.Key)
		c.bytes -= el.Value.(*node).size
	}
	evicted := c.insert(e)
	c.mu.Unlock()
	// Persist the new entry and prune the evicted files after
	// unlocking: the in-memory LRU is already consistent, the disk
	// mirror is best-effort, and fsync latency must not extend the
	// lock hold time that Get contends on.
	if c.dir != "" {
		if b, err := json.Marshal(e); err == nil {
			_ = writeAtomic(c.dir, c.path(e.Key), b)
		}
		for _, p := range evicted {
			_ = os.Remove(p)
		}
	}
	return nil
}

// insert adds e at the front and evicts from the back, returning the
// persistence paths of evicted entries for the caller to prune off-lock.
// Caller holds mu (or is Open's single-threaded load).
func (c *Cache) insert(e *Entry) (evicted []string) {
	sz := e.size()
	el := c.ll.PushFront(&node{entry: e, size: sz})
	c.byKey[e.Key] = el
	c.bytes += sz
	c.stores++
	for c.bytes > c.max {
		back := c.ll.Back()
		if back == nil || back == el {
			break
		}
		//lint:ignore ksrlint/errnopanic the list is private and only insert pushes onto it, always a *node; no input reaches this assertion
		n := back.Value.(*node)
		c.ll.Remove(back)
		delete(c.byKey, n.entry.Key)
		c.bytes -= n.size
		c.evictions++
		if c.dir != "" {
			evicted = append(evicted, c.path(n.entry.Key))
		}
	}
	return evicted
}

// path is the persistence file for key.
func (c *Cache) path(key string) string { return filepath.Join(c.dir, key+".json") }

// writeAtomic persists b to path via temp file + fsync + rename +
// directory fsync: a crash mid-save leaves either the previous file or
// the complete new one, never a truncated hybrid. Open additionally
// sweeps orphaned tmp- files left by a crash before the rename.
func writeAtomic(dir, path string, b []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Stores:    c.stores,
		Evictions: c.evictions,
		Persisted: c.dir != "",
	}
}
