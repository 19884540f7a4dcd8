// Journal is jobq's durability layer: an append-only, fsync'd log of
// job lifecycle records. The daemon journals a job's submission before
// acknowledging it, so a crash can never lose acknowledged work — on
// restart the log is replayed, pending jobs are re-enqueued, and jobs
// that finished before the crash are answered from the result cache.
// Determinism is what makes this recovery protocol trivial: re-running
// an interrupted job is always byte-identical to the run it interrupts,
// so "resume" is just "re-enqueue".
//
// The on-disk format is one canonical-JSON record per line. The first
// record is a header naming the format version; every later record
// carries a type from the Rec* constants. Appends are fsync'd before
// Append returns. A torn final line (crash mid-write) is detected on
// open and truncated away — the log is readable after any crash.
// Compaction rewrites the log to just the still-live records via a
// temp file + rename + directory fsync, so a crash mid-compaction
// leaves either the old log or the new one, never a hybrid.
package jobq

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// JournalFormatV1 identifies the record schema; it is the Format of the
// mandatory header record.
const JournalFormatV1 = "ksrsimd/journal/v1"

// Record types, in lifecycle order. Submit, Start, and Retry are
// non-terminal; Done, Fail, Cancel, and Quarantine end a job.
const (
	RecHeader     = "header"
	RecSubmit     = "submit"
	RecStart      = "start"
	RecRetry      = "retry"
	RecDone       = "done"
	RecFail       = "fail"
	RecCancel     = "cancel"
	RecQuarantine = "quarantine"
)

// Record is one journal line. Every field is statically canonical
// (concrete scalars and RawMessage), so identical records always encode
// to identical bytes — the same invariant the result cache keys on.
type Record struct {
	Type   string `json:"type"`
	Format string `json:"format,omitempty"` // header records only
	ID     string `json:"id,omitempty"`
	// Submit records carry everything needed to re-admit the job.
	Experiment  string          `json:"experiment,omitempty"`
	Key         string          `json:"key,omitempty"`
	Priority    int             `json:"priority,omitempty"`
	Config      json.RawMessage `json:"config,omitempty"` // canonical config
	TimeoutNs   int64           `json:"timeout_ns,omitempty"`
	MaxAttempts int             `json:"max_attempts,omitempty"`
	// Start/Retry/Quarantine records carry the attempt counter.
	Attempt int    `json:"attempt,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Journal is the append-only log. Safe for concurrent use.
type Journal struct {
	mu          sync.Mutex
	path        string
	f           *os.File
	appends     int64
	compactions int64
	bytes       int64
}

// errIncompatible rejects journals written by a different schema.
var errIncompatible = errors.New("jobq: journal format is not " + JournalFormatV1)

// OpenJournal opens (or creates) the journal at path and replays it,
// returning every intact record after the header in append order. A
// torn final line is truncated so subsequent appends start clean; a
// journal whose header names an unknown format is refused — silently
// replaying records under the wrong schema could resurrect the wrong
// jobs.
//
//ksr:untrusted-input
func OpenJournal(path string) (*Journal, []Record, error) {
	b, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("jobq: journal: %w", err)
	}
	var records []Record
	valid := 0 // byte offset past the last intact record
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			break // torn tail: no newline made it to disk
		}
		rec, err := decodeRecord(b[off : off+nl])
		if err != nil {
			break // torn/corrupt line; everything after it is suspect
		}
		if valid == 0 {
			if rec.Type != RecHeader || rec.Format != JournalFormatV1 {
				return nil, nil, errIncompatible
			}
		} else {
			records = append(records, rec)
		}
		off += nl + 1
		valid = off
	}
	if valid < len(b) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, fmt.Errorf("jobq: journal: truncating torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobq: journal: %w", err)
	}
	j := &Journal{path: path, f: f, bytes: int64(valid)}
	if valid == 0 {
		if err := j.Append(Record{Type: RecHeader, Format: JournalFormatV1}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return j, records, nil
}

// Append writes one record and fsyncs before returning: once Append
// succeeds the record survives any crash. Callers journal a submission
// before acknowledging it for exactly this reason.
func (j *Journal) Append(rec Record) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("jobq: journal is closed")
	}
	//lint:ignore ksrlint/lockorder write+fsync under mu is the durability contract: the lock orders records on disk exactly as they were acknowledged
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("jobq: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobq: journal fsync: %w", err)
	}
	j.appends++
	j.bytes += int64(len(line))
	return nil
}

// Appends returns how many records landed since open or the last
// compaction — the counter compaction policies trigger on.
func (j *Journal) Appends() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Compactions returns how many times the journal has been compacted.
func (j *Journal) Compactions() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactions
}

// Compact atomically replaces the log with a header plus the given
// still-live records (typically one submit record per pending job).
// The new log is written to a temp file, fsync'd, renamed over the old
// one, and the directory fsync'd — a crash at any point leaves a
// complete journal, old or new.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("jobq: journal is closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-compact-*")
	if err != nil {
		return fmt.Errorf("jobq: journal compact: %w", err)
	}
	//lint:ignore ksrlint/lockorder compaction must exclude concurrent appends for the whole write-fsync-rename sequence or the rename drops records
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	written := int64(0)
	write := func(rec Record) error {
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		_, err = tmp.Write(line)
		written += int64(len(line))
		return err
	}
	if err := write(Record{Type: RecHeader, Format: JournalFormatV1}); err != nil {
		tmp.Close()
		return err
	}
	for _, rec := range live {
		if err := write(rec); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("jobq: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobq: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("jobq: journal compact: %w", err)
	}
	syncDir(dir)
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobq: journal compact: %w", err)
	}
	j.f.Close()
	j.f = f
	j.appends = 0
	j.compactions++
	j.bytes = written
	return nil
}

// Bytes returns the journal's current on-disk size in bytes: what was
// replayed at open plus every append since, reset by compaction. Cheaper
// than a stat and exact, since all writes go through this struct.
func (j *Journal) Bytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// Close releases the file handle. Records already appended are durable;
// further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	//lint:ignore ksrlint/lockorder closing under mu is what makes "closed" atomic with j.f = nil for racing appends
	err := j.f.Close()
	j.f = nil
	return err
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// encodeRecord marshals one journal line (canonical JSON + newline).
func encodeRecord(rec Record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobq: journal encode: %w", err)
	}
	return append(b, '\n'), nil
}

// decodeRecord strictly decodes one journal line. Unknown fields mean
// the record was written by a different schema and must not be
// half-loaded.
//
//ksr:untrusted-input
func decodeRecord(line []byte) (Record, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var rec Record
	if err := dec.Decode(&rec); err != nil {
		return Record{}, fmt.Errorf("jobq: journal decode: %w", err)
	}
	if dec.More() {
		return Record{}, errors.New("jobq: journal decode: trailing data in record")
	}
	if rec.Type == "" {
		return Record{}, errors.New("jobq: journal decode: record missing type")
	}
	return rec, nil
}

// ReplayJob is one job's reduced state after replaying a journal: its
// original submit record, how many attempts had started, and the
// terminal record type ("" while still pending).
type ReplayJob struct {
	Submit   Record
	Attempts int
	Terminal string // "", RecDone, RecFail, RecCancel, or RecQuarantine
}

// Reduce folds a replayed record stream into per-job state, in original
// submission order. Records for unknown ids (terminal records whose
// submit was dropped by an earlier compaction) are ignored.
//
//ksr:untrusted-input
func Reduce(records []Record) []ReplayJob {
	byID := make(map[string]*ReplayJob)
	var order []string
	for _, rec := range records {
		if rec.Type == RecSubmit {
			if _, ok := byID[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			// Re-submission after a terminal record (same id reused by a
			// compacted log) restarts the lifecycle.
			byID[rec.ID] = &ReplayJob{Submit: rec, Attempts: rec.Attempt}
			continue
		}
		rj, ok := byID[rec.ID]
		if !ok {
			continue
		}
		switch rec.Type {
		case RecStart:
			rj.Attempts = rec.Attempt
		case RecDone, RecFail, RecCancel, RecQuarantine:
			rj.Terminal = rec.Type
		}
	}
	out := make([]ReplayJob, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}
