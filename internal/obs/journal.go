package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Record is one line of the JSONL run journal. Seq is strictly increasing
// within a journal and TMs is the emission time in milliseconds since the
// journal was opened, so a journal is replayable and sortable on its own.
type Record struct {
	// Seq is the 1-based sequence number stamped by the journal.
	Seq int64 `json:"seq"`
	// TMs is the emission time, milliseconds since the journal opened.
	TMs float64 `json:"t_ms"`
	// Event names the record kind: "generation", "span-begin", "span-end",
	// "done", "sample", "metrics" or a caller-defined label.
	Event string `json:"event"`
	// Scope names the emitting loop or phase.
	Scope string `json:"scope,omitempty"`
	// Gen is the generation / iteration ordinal (generation records).
	Gen int `json:"gen"`
	// Evals is the cumulative evaluation count at emission time.
	Evals int64 `json:"evals"`
	// Best is the best objective value so far (generation/done records).
	Best float64 `json:"best"`
	// WallMs is the wall time attributed to the record, milliseconds.
	WallMs float64 `json:"wall_ms"`
	// Trace identifies the run the record belongs to; Span and Parent carry
	// the causal span identity stamped by a Traced observer. All three are
	// omitted for untraced records and tolerated as absent on replay, so
	// journals written before the trace model still parse.
	Trace uint64 `json:"trace,omitempty"`
	// Span is the span this record describes.
	Span uint64 `json:"span,omitempty"`
	// Parent is the enclosing span.
	Parent uint64 `json:"parent,omitempty"`
	// Worker is the 1-based pool-worker ordinal for worker-attributed spans.
	Worker int `json:"worker,omitempty"`
	// Fields carries free-form numeric payloads (the metrics record).
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Journal is a goroutine-safe JSONL event log. Every Append stamps the
// sequence number and relative timestamp and flushes the line, so a journal
// is valid up to its last record even after a crash.
type Journal struct {
	mu    sync.Mutex
	w     *bufio.Writer
	close io.Closer
	seq   int64
	start time.Time
	err   error
}

// NewJournal writes records to w (the caller keeps ownership of w).
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: bufio.NewWriter(w), start: time.Now()}
}

// OpenJournal creates (or truncates) a JSONL journal file at path.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal: %w", err)
	}
	j := NewJournal(f)
	j.close = f
	return j, nil
}

// Append stamps rec's Seq and writes it as one JSON line. TMs is stamped
// relative to the journal's open time only when the caller left it zero —
// the Hub stamps emission time itself, which survives journal rotation and
// keeps t_ms monotonic with the emitting run rather than the file. The
// first write error sticks and is returned by every later call and by Close.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.seq++
	rec.Seq = j.seq
	if rec.TMs == 0 {
		rec.TMs = float64(time.Since(j.start)) / float64(time.Millisecond)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		j.err = err
		return err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// EpochEvent names the record anchoring a journal's relative clock to the
// wall clock, written by AppendEpoch and consumed by replay.Merge.
const EpochEvent = "epoch"

// AppendEpoch appends an "epoch" record carrying the current wall-clock time
// ("unix_ms"). Together with the record's own relative t_ms this anchors the
// journal's t=0 on the shared wall clock, which is what lets replay.Merge
// stitch journals from different processes (a crashed lnaservd and its
// restart) onto one timeline.
func (j *Journal) AppendEpoch() error {
	return j.Append(Record{
		Event:  EpochEvent,
		Fields: map[string]float64{"unix_ms": float64(time.Now().UnixMilli())},
	})
}

// AppendSnapshot appends the registry's flattened metrics as a final
// "metrics" record.
func (j *Journal) AppendSnapshot(r *Registry) error {
	return j.Append(Record{Event: "metrics", Fields: r.Snapshot().Flatten()})
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close flushes and, for file-backed journals, closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	if j.err == nil {
		j.err = ferr
	}
	if j.close != nil {
		cerr := j.close.Close()
		j.close = nil
		if j.err == nil {
			j.err = cerr
		}
	}
	return j.err
}
