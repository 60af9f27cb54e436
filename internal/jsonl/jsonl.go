// Package jsonl is the one reader and the one atomic writer behind every
// durable file in the repository: run journals, stage checkpoints, the job
// queue's write-ahead log and the campaign artifacts.
//
// A JSONL file holds one JSON value per line. An append torn by a crash
// must not cost the records before it, so reading degrades instead of
// failing: Read returns every record before the first line that does not
// parse, plus a *TailError naming that line and the byte length of the
// complete prefix. A writer that appends to such a file again first
// truncates it to TailError.Offset, so the next record never fuses with the
// torn line. The appenders themselves stay with their owners: the run
// journal flushes every record, the queue's WAL fsyncs every record.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TailError reports a JSONL stream whose tail could not be parsed,
// typically a crash mid-append. The records before Line were returned
// alongside it.
type TailError struct {
	// File is the path the stream was read from ("" for a bare reader).
	File string
	// Line is the 1-based number of the first unparseable line.
	Line int
	// Offset is the byte length of the complete-record prefix, which is
	// where line Line starts; truncating the file there amputates the tail.
	Offset int64
	// Err is the underlying parse error.
	Err error
}

// Error implements error.
func (e *TailError) Error() string {
	if e.File == "" {
		return fmt.Sprintf("jsonl: tail corrupt at line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("jsonl: %s: tail corrupt at line %d: %v", e.File, e.Line, e.Err)
}

// Unwrap exposes the underlying parse error.
func (e *TailError) Unwrap() error { return e.Err }

// Read parses a JSONL stream into records. Whitespace-only lines are
// skipped and lines have no length cap. At the first line that does not
// parse as a T, Read returns the records before it and a *TailError; any
// other error is a failure to read r.
func Read[T any](r io.Reader) ([]T, error) {
	br := bufio.NewReader(r)
	var out []T
	var off int64
	for line := 1; ; line++ {
		raw, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) > 0 {
			var rec T
			if jerr := json.Unmarshal(raw, &rec); jerr != nil {
				return out, &TailError{Line: line, Offset: off, Err: jerr}
			}
			out = append(out, rec)
		}
		off += int64(len(raw))
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, fmt.Errorf("jsonl: %w", err)
		}
	}
}

// ReadFile is Read over the file at path; a *TailError names the file. A
// failure to open path is returned as is, so callers can test it with
// errors.Is(err, fs.ErrNotExist).
func ReadFile[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := Read[T](f)
	if te, ok := err.(*TailError); ok {
		te.File = path
	}
	return recs, err
}

// WriteFileAtomic replaces path with data so that a crash at any instant
// leaves either the old complete file or the new one: data goes to
// path+".tmp" in the same directory, is synced and closed, and is renamed
// over path. The temp file is removed on any failure; one abandoned by a
// killed process is ignored by readers, which only open path, and is
// overwritten by the next write.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
