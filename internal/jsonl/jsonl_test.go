package jsonl

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

func TestReadSkipsBlankLinesAndKeepsUnterminatedLastRecord(t *testing.T) {
	recs, err := Read[rec](strings.NewReader("{\"n\":1}\n\n  \t\n{\"n\":2}\r\n{\"n\":3}"))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(recs) != 3 || recs[0].N != 1 || recs[1].N != 2 || recs[2].N != 3 {
		t.Fatalf("records = %+v", recs)
	}
}

func TestReadTornTailReportsLineAndOffset(t *testing.T) {
	good := "{\"n\":1}\n\n{\"n\":2}\n"
	for _, tail := range []string{`{"n":3,"s":"tr`, "not json\n{\"n\":4}\n"} {
		recs, err := Read[rec](strings.NewReader(good + tail))
		var te *TailError
		if !errors.As(err, &te) {
			t.Fatalf("tail %q: err = %v, want *TailError", tail, err)
		}
		if te.Line != 4 || te.Offset != int64(len(good)) || te.File != "" {
			t.Fatalf("tail %q: TailError = %+v, want line 4 offset %d", tail, te, len(good))
		}
		if len(recs) != 2 || recs[1].N != 2 {
			t.Fatalf("tail %q: records = %+v, want the 2 before it", tail, recs)
		}
		if !strings.Contains(te.Error(), "tail corrupt at line 4") {
			t.Fatalf("message %q does not name the line", te.Error())
		}
	}
}

// A record longer than any fixed scanner buffer still reads: the journal,
// checkpoint and WAL formats put no cap on a line.
func TestReadHasNoLineLengthCap(t *testing.T) {
	long := strings.Repeat("x", 20<<20)
	recs, err := Read[rec](strings.NewReader(`{"n":1,"s":"` + long + "\"}\n"))
	if err != nil || len(recs) != 1 || len(recs[0].S) != len(long) {
		t.Fatalf("long record: %d records, err %v", len(recs), err)
	}
}

func TestReadFile(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadFile[rec](filepath.Join(dir, "absent.jsonl")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	path := filepath.Join(dir, "torn.jsonl")
	if err := os.WriteFile(path, []byte("{\"n\":1}\n{\"n\""), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadFile[rec](path)
	var te *TailError
	if !errors.As(err, &te) || te.File != path || te.Line != 2 || te.Offset != 8 || len(recs) != 1 {
		t.Fatalf("torn file: records %+v, err %v", recs, err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("message %q does not name the file", err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, body := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(body)); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Fatalf("file = %q, %v; want %q", got, err, body)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a successful write: %v", err)
	}

	// A rename that cannot succeed (the target is a non-empty directory)
	// fails the write and leaves no temp file behind.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("write over a directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a failed write: %v", err)
	}
}
