// Package journal implements the append-only, checksummed outcome log
// that makes long campaigns crash-safe: every record the harness has
// journaled survives a crash, an OOM kill, or a SIGKILL, and a
// partially written final record — the only damage a torn append can
// cause — is detected and dropped on recovery instead of poisoning
// the file.
//
// # On-disk format
//
// A journal is a sequence of framed records, one per line:
//
//	llllllll cccccccc <payload>\n
//
// where llllllll is the payload length and cccccccc the IEEE CRC32 of
// the payload, both as exactly eight lowercase hex digits: recovery
// accepts no other spelling, so re-framing the recovered records
// reproduces the intact prefix byte for byte. The payload is an
// arbitrary byte string (the harness stores one JSON document per
// record, so an intact journal is also valid JSONL after stripping
// the 18-byte frame prefix). The frame is self-describing: recovery
// never needs to parse the payload to walk the file.
//
// # Crash-tolerance contract
//
//   - A record is durable once Append returns (the frame is flushed
//     to the OS; Sync additionally forces it to stable storage).
//   - Recover replays every intact record in order. A final record
//     that is incomplete or fails its checksum — the signature of a
//     write cut short by a crash — is dropped and reported via
//     Truncated, not treated as an error.
//   - Damage anywhere *before* the final record (a checksum mismatch
//     or broken frame with more data after it) cannot be explained by
//     a torn append; it means the file was corrupted at rest, and
//     Recover returns a *CorruptError rather than silently dropping
//     work.
//   - Resume recovers, truncates any torn tail so the next Append
//     starts on a clean boundary, and reopens the file for appending.
package journal

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
)

// frameLen is the fixed byte length of a record frame prefix:
// 8 hex digits of payload length, a space, 8 hex digits of CRC32,
// and a trailing space.
const frameLen = 8 + 1 + 8 + 1

// MaxRecordLen bounds a single record's payload. The cap exists so a
// corrupted length field cannot make recovery attempt a multi-gigabyte
// allocation; it is far above any record the harness writes.
const MaxRecordLen = 1 << 28

// Writer appends framed records to a journal file.
type Writer struct {
	f  *os.File
	bw *bufio.Writer
}

// Create opens a fresh journal at path, failing if a non-empty file
// already exists there (an existing journal is prior work; callers
// that mean to continue it must go through Resume, and callers that
// mean to discard it must remove it explicitly).
func Create(path string) (*Writer, error) {
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return nil, fmt.Errorf("journal %s already exists (%d bytes); resume it or remove it first", path, st.Size())
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, bw: bufio.NewWriter(f)}, nil
}

// Append frames payload and writes it. The record is flushed to the
// operating system before Append returns, so it survives a process
// crash (call Sync to also survive power loss).
func (w *Writer) Append(payload []byte) error {
	if len(payload) > MaxRecordLen {
		return fmt.Errorf("journal record too large: %d bytes", len(payload))
	}
	fmt.Fprintf(w.bw, "%08x %08x ", len(payload), crc32.ChecksumIEEE(payload))
	w.bw.Write(payload)
	w.bw.WriteByte('\n')
	return w.bw.Flush()
}

// Sync forces everything appended so far to stable storage.
func (w *Writer) Sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the journal file.
func (w *Writer) Close() error {
	flushErr := w.bw.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// CorruptError reports damage before the final record — corruption
// that a torn final append cannot explain.
type CorruptError struct {
	Path   string
	Offset int64  // byte offset of the damaged record's frame
	Reason string // what failed to parse or verify
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("journal %s: corrupt record at offset %d: %s", e.Path, e.Offset, e.Reason)
}

// Recovered is the result of replaying a journal.
type Recovered struct {
	// Records holds every intact record's payload, in append order.
	Records [][]byte
	// Truncated reports that a torn final record was dropped.
	Truncated bool
	// CleanLen is the byte length of the intact prefix; Resume
	// truncates the file to this length before appending.
	CleanLen int64
}

// Recover reads the journal at path and replays its intact records.
// See the package comment for the tolerance contract: a torn final
// record is dropped (Truncated=true); damage before the final record
// yields a *CorruptError.
func Recover(path string) (*Recovered, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return recoverData(path, data)
}

// recoverData replays the journal bytes data read from path.
func recoverData(path string, data []byte) (*Recovered, error) {
	rec := &Recovered{}
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		// tornTail marks everything from off onward as a torn final
		// record: tolerated, dropped, recovery stops here.
		tornTail := func() (*Recovered, error) {
			rec.Truncated = true
			rec.CleanLen = off
			return rec, nil
		}
		corrupt := func(reason string) (*Recovered, error) {
			return nil, &CorruptError{Path: path, Offset: off, Reason: reason}
		}
		if len(rest) < frameLen {
			return tornTail()
		}
		length, lenOK := parseHex8(rest[:8])
		sum, sumOK := parseHex8(rest[9:17])
		if !lenOK || !sumOK || rest[8] != ' ' || rest[frameLen-1] != ' ' {
			// The frame itself is unreadable. If it runs to the end of
			// the file it is a torn append; earlier it is corruption.
			if bytes.IndexByte(rest, '\n') == len(rest)-1 || bytes.IndexByte(rest, '\n') == -1 {
				return tornTail()
			}
			return corrupt("unparseable frame header")
		}
		if length > MaxRecordLen {
			return corrupt(fmt.Sprintf("declared payload length %d exceeds cap", length))
		}
		end := off + frameLen + int64(length) + 1 // +1 for the newline
		if end > int64(len(data)) {
			return tornTail()
		}
		payload := data[off+frameLen : end-1]
		final := end == int64(len(data))
		if data[end-1] != '\n' {
			if final {
				return tornTail()
			}
			return corrupt("missing record terminator")
		}
		if crc32.ChecksumIEEE(payload) != sum {
			if final {
				return tornTail()
			}
			return corrupt("checksum mismatch")
		}
		rec.Records = append(rec.Records, payload)
		off = end
	}
	rec.CleanLen = off
	return rec, nil
}

// parseHex8 parses a frame field: exactly eight lowercase hex digits,
// the only form Append writes.
func parseHex8(b []byte) (uint32, bool) {
	var v uint32
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// Resume recovers the journal at path, truncates any torn tail so the
// file ends on a record boundary, and reopens it for appending. The
// recovered records let the caller replay prior work; subsequent
// Appends extend the same journal.
func Resume(path string) (*Recovered, *Writer, error) {
	rec, err := Recover(path)
	if err != nil {
		return nil, nil, err
	}
	if rec.Truncated {
		if err := os.Truncate(path, rec.CleanLen); err != nil {
			return nil, nil, fmt.Errorf("journal %s: dropping torn tail: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return rec, &Writer{f: f, bw: bufio.NewWriter(f)}, nil
}
