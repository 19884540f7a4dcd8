package jobq

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openJournal(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestJournalAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, recs := openJournal(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []Record{
		{Type: RecSubmit, ID: "job-1", Experiment: "latency", Key: "k1", Priority: 2,
			Config: json.RawMessage(`{"Cells":4}`), TimeoutNs: 5e9, MaxAttempts: 3},
		{Type: RecStart, ID: "job-1", Attempt: 1},
		{Type: RecRetry, ID: "job-1", Attempt: 1, Error: "transient"},
		{Type: RecStart, ID: "job-1", Attempt: 2},
		{Type: RecDone, ID: "job-1", Key: "k1"},
		{Type: RecSubmit, ID: "job-2", Experiment: "ep", Key: "k2"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	_, got := openJournal(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, _ := json.Marshal(got[i])
		b, _ := json.Marshal(want[i])
		if !bytes.Equal(a, b) {
			t.Errorf("record %d: %s != %s", i, a, b)
		}
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openJournal(t, path)
	j.Append(Record{Type: RecSubmit, ID: "job-1", Experiment: "latency", Key: "k1"})
	j.Close()

	// Simulate a crash mid-append: half a record, no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"done","id":"job-`)
	f.Close()

	j2, recs := openJournal(t, path)
	if len(recs) != 1 || recs[0].ID != "job-1" || recs[0].Type != RecSubmit {
		t.Fatalf("after torn tail, replay = %+v, want just job-1's submit", recs)
	}
	// The journal must be appendable again after truncation, and the new
	// record must survive a reopen.
	if err := j2.Append(Record{Type: RecDone, ID: "job-1", Key: "k1"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs = openJournal(t, path)
	if len(recs) != 2 || recs[1].Type != RecDone {
		t.Fatalf("append after truncation lost: %+v", recs)
	}
}

func TestJournalTornMiddleStopsReplay(t *testing.T) {
	// A corrupt record mid-file abandons everything after it: the suffix
	// is unordered garbage once one record is broken.
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openJournal(t, path)
	j.Append(Record{Type: RecSubmit, ID: "job-1"})
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString("{\"type\":\"start\",\"id\":\"job-1\",\"bogus_field\":1}\n")
	f.WriteString("{\"type\":\"done\",\"id\":\"job-1\"}\n")
	f.Close()

	_, recs := openJournal(t, path)
	if len(recs) != 1 || recs[0].Type != RecSubmit {
		t.Fatalf("replay past corrupt record: %+v", recs)
	}
}

func TestJournalRefusesUnknownFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	os.WriteFile(path, []byte(`{"type":"header","format":"ksrsimd/journal/v9"}`+"\n"), 0o644)
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("journal with unknown format accepted")
	}
}

func TestJournalCompactKeepsOnlyLiveRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, _ := openJournal(t, path)
	for i := 0; i < 10; i++ {
		j.Append(Record{Type: RecSubmit, ID: "job-x"})
		j.Append(Record{Type: RecDone, ID: "job-x"})
	}
	live := []Record{{Type: RecSubmit, ID: "job-pending", Experiment: "ep", Key: "kp", Attempt: 1}}
	if err := j.Compact(live); err != nil {
		t.Fatal(err)
	}
	if j.Appends() != 0 || j.Compactions() != 1 {
		t.Errorf("appends=%d compactions=%d after compact", j.Appends(), j.Compactions())
	}
	// Appends after compaction land in the new file.
	j.Append(Record{Type: RecStart, ID: "job-pending", Attempt: 2})
	j.Close()

	_, recs := openJournal(t, path)
	if len(recs) != 2 || recs[0].ID != "job-pending" || recs[1].Type != RecStart {
		t.Fatalf("post-compaction replay = %+v", recs)
	}
	// No temp files left behind.
	des, _ := os.ReadDir(filepath.Dir(path))
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "journal-compact-") {
			t.Errorf("stale compaction temp file %s", de.Name())
		}
	}
}

func TestReduce(t *testing.T) {
	recs := []Record{
		{Type: RecSubmit, ID: "a", Experiment: "latency", Key: "ka"},
		{Type: RecSubmit, ID: "b", Experiment: "ep", Key: "kb"},
		{Type: RecStart, ID: "a", Attempt: 1},
		{Type: RecSubmit, ID: "c", Experiment: "cg", Key: "kc"},
		{Type: RecStart, ID: "b", Attempt: 1},
		{Type: RecRetry, ID: "b", Attempt: 1, Error: "transient"},
		{Type: RecStart, ID: "b", Attempt: 2},
		{Type: RecDone, ID: "a", Key: "ka"},
		{Type: RecCancel, ID: "c"},
		{Type: RecDone, ID: "ghost"}, // terminal for an id with no submit: ignored
	}
	jobs := Reduce(recs)
	if len(jobs) != 3 {
		t.Fatalf("reduced to %d jobs, want 3", len(jobs))
	}
	byID := make(map[string]ReplayJob)
	for _, rj := range jobs {
		byID[rj.Submit.ID] = rj
	}
	if rj := byID["a"]; rj.Terminal != RecDone {
		t.Errorf("a = %+v, want done", rj)
	}
	if rj := byID["b"]; rj.Terminal != "" || rj.Attempts != 2 {
		t.Errorf("b = %+v, want pending with 2 attempts", rj)
	}
	if rj := byID["c"]; rj.Terminal != RecCancel {
		t.Errorf("c = %+v, want cancelled", rj)
	}
	// Submission order is preserved.
	if jobs[0].Submit.ID != "a" || jobs[1].Submit.ID != "b" || jobs[2].Submit.ID != "c" {
		t.Errorf("order = %s %s %s", jobs[0].Submit.ID, jobs[1].Submit.ID, jobs[2].Submit.ID)
	}
}

// TestJournalEncodingCanonical: identical records encode to identical
// bytes — the property the ksrlint canonicaljson analyzer now enforces
// on this package statically, checked here dynamically.
func TestJournalEncodingCanonical(t *testing.T) {
	rec := Record{Type: RecSubmit, ID: "job-1", Experiment: "latency", Key: "k",
		Config: json.RawMessage(`{"Cells":8}`), Priority: 3}
	a, err := encodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := encodeRecord(rec)
	if !bytes.Equal(a, b) {
		t.Fatal("identical records encoded differently")
	}
	got, err := decodeRecord(bytes.TrimSuffix(a, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	re, _ := encodeRecord(got)
	if !bytes.Equal(a, re) {
		t.Fatalf("decode/encode not a fixed point: %s vs %s", a, re)
	}
}
