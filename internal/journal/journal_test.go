package journal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.journal")
}

func writeRecords(t *testing.T, path string, payloads ...[]byte) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustRecover(t *testing.T, path string) *Recovered {
	t.Helper()
	rec, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRoundTrip(t *testing.T) {
	path := tmpJournal(t)
	payloads := [][]byte{
		[]byte(`{"kind":"header","v":1}`),
		[]byte(`{"kind":"seed","idx":0}`),
		[]byte(``), // empty payloads are legal records
		[]byte(`{"kind":"seed","idx":1,"detail":"multi byte é"}`),
	}
	writeRecords(t, path, payloads...)
	rec := mustRecover(t, path)
	if rec.Truncated {
		t.Error("clean journal reported as truncated")
	}
	if len(rec.Records) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(rec.Records[i], p) {
			t.Errorf("record %d: got %q, want %q", i, rec.Records[i], p)
		}
	}
	st, _ := os.Stat(path)
	if rec.CleanLen != st.Size() {
		t.Errorf("CleanLen = %d, file size = %d", rec.CleanLen, st.Size())
	}
}

func TestEmptyJournal(t *testing.T) {
	path := tmpJournal(t)
	writeRecords(t, path) // create, append nothing
	rec := mustRecover(t, path)
	if len(rec.Records) != 0 || rec.Truncated || rec.CleanLen != 0 {
		t.Errorf("empty journal: %+v", rec)
	}
}

func TestMissingJournal(t *testing.T) {
	_, err := Recover(filepath.Join(t.TempDir(), "nope.journal"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want not-exist", err)
	}
}

// TestTruncatedFinalRecord simulates a crash mid-append: every
// truncation point of the final record — inside the frame, inside the
// payload, at the missing terminator — must be tolerated, dropping
// exactly that record.
func TestTruncatedFinalRecord(t *testing.T) {
	path := tmpJournal(t)
	writeRecords(t, path, []byte(`{"idx":0}`), []byte(`{"idx":1}`), []byte(`{"idx":2,"pad":"xxxxxxxx"}`))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact := mustRecover(t, path)
	lastStart := intact.CleanLen - int64(frameLen+len(`{"idx":2,"pad":"xxxxxxxx"}`)+1)
	for cut := lastStart + 1; cut < int64(len(full)); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(path)
		if err != nil {
			t.Fatalf("cut at %d: unexpected error %v", cut, err)
		}
		if !rec.Truncated {
			t.Fatalf("cut at %d: truncation not reported", cut)
		}
		if len(rec.Records) != 2 {
			t.Fatalf("cut at %d: recovered %d records, want 2", cut, len(rec.Records))
		}
		if rec.CleanLen != lastStart {
			t.Fatalf("cut at %d: CleanLen=%d, want %d", cut, rec.CleanLen, lastStart)
		}
	}
}

// TestCorruptedFinalRecord: a bit-flip confined to the final record is
// indistinguishable from a torn append and is likewise dropped.
func TestCorruptedFinalRecord(t *testing.T) {
	path := tmpJournal(t)
	writeRecords(t, path, []byte(`{"idx":0}`), []byte(`{"idx":1}`))
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0x40 // flip a payload byte of the last record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec := mustRecover(t, path)
	if !rec.Truncated || len(rec.Records) != 1 {
		t.Errorf("corrupt final record: truncated=%v records=%d, want true/1", rec.Truncated, len(rec.Records))
	}
}

// TestCorruptedChecksumMidFile: damage before the final record cannot
// come from a torn append; recovery must refuse rather than silently
// drop journaled work.
func TestCorruptedChecksumMidFile(t *testing.T) {
	path := tmpJournal(t)
	writeRecords(t, path, []byte(`{"idx":0}`), []byte(`{"idx":1}`), []byte(`{"idx":2}`))
	data, _ := os.ReadFile(path)
	data[frameLen+2] ^= 0x01 // payload byte of record 0
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Recover(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("mid-file corruption: got %v, want *CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Errorf("corruption attributed to offset %d, want 0", ce.Offset)
	}
}

// TestResumeAfterTornTail: Resume must drop the torn tail, land the
// file back on a record boundary, and append cleanly after it.
func TestResumeAfterTornTail(t *testing.T) {
	path := tmpJournal(t)
	writeRecords(t, path, []byte(`{"idx":0}`), []byte(`{"idx":1}`))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil { // tear record 1
		t.Fatal(err)
	}
	rec, w, err := Resume(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated || len(rec.Records) != 1 {
		t.Fatalf("resume: truncated=%v records=%d, want true/1", rec.Truncated, len(rec.Records))
	}
	if err := w.Append([]byte(`{"idx":1,"retry":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after := mustRecover(t, path)
	if after.Truncated || len(after.Records) != 2 {
		t.Fatalf("post-resume journal: truncated=%v records=%d, want false/2", after.Truncated, len(after.Records))
	}
	if string(after.Records[1]) != `{"idx":1,"retry":true}` {
		t.Errorf("appended record mangled: %q", after.Records[1])
	}
}

// TestCreateRefusesExisting: Create must not clobber prior work.
func TestCreateRefusesExisting(t *testing.T) {
	path := tmpJournal(t)
	writeRecords(t, path, []byte(`{"idx":0}`))
	if _, err := Create(path); err == nil {
		t.Fatal("Create overwrote an existing non-empty journal")
	}
}

// TestManyRecordsSurviveEveryPrefix: recovery of any write-boundary
// prefix of a long journal yields exactly the records appended before
// the cut — the invariant the campaign resume path depends on.
func TestManyRecordsSurviveEveryPrefix(t *testing.T) {
	path := tmpJournal(t)
	var payloads [][]byte
	for i := 0; i < 50; i++ {
		payloads = append(payloads, []byte(fmt.Sprintf(`{"idx":%d,"body":"%0*d"}`, i, i%17+1, i)))
	}
	writeRecords(t, path, payloads...)
	full, _ := os.ReadFile(path)

	// Walk record boundaries via a clean recovery first.
	boundaries := []int64{0}
	off := int64(0)
	for _, p := range payloads {
		off += int64(frameLen + len(p) + 1)
		boundaries = append(boundaries, off)
	}
	for n, b := range boundaries {
		if err := os.WriteFile(path, full[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		rec := mustRecover(t, path)
		if len(rec.Records) != n || rec.Truncated {
			t.Fatalf("prefix of %d records: recovered %d (truncated=%v)", n, len(rec.Records), rec.Truncated)
		}
	}
}

// FuzzRecover: recovery never panics on arbitrary bytes, and whatever
// it accepts is exactly what the Writer writes — re-framing the
// recovered records reproduces the intact prefix byte for byte.
func FuzzRecover(f *testing.F) {
	var valid bytes.Buffer
	w := &Writer{bw: bufio.NewWriter(&valid)}
	for _, p := range []string{`{"kind":"header"}`, "", "two\nlines"} {
		if err := w.Append([]byte(p)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := recoverData("fuzz.journal", data)
		if err != nil {
			return
		}
		var again bytes.Buffer
		w := &Writer{bw: bufio.NewWriter(&again)}
		for _, p := range rec.Records {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(again.Bytes(), data[:rec.CleanLen]) {
			t.Fatalf("re-framed records %q differ from the intact prefix %q", again.Bytes(), data[:rec.CleanLen])
		}
	})
}
