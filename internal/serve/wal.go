package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gnsslna/internal/jsonl"
)

// walRecord is one line of the queue's write-ahead journal. Op "submit"
// carries the full job at admission, "state" a lifecycle transition, and
// "snapshot" opens a compacted segment: it resets replay state and carries
// one live job per following "submit" record.
type walRecord struct {
	Op string `json:"op"`
	// Job is the full job for submit records (and recovery snapshots).
	Job *Job `json:"job,omitempty"`
	// ID/State/Attempt/Error/Result/TMS describe a state transition.
	ID      string          `json:"id,omitempty"`
	State   JobState        `json:"state,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	TMS     int64           `json:"t_ms,omitempty"`
}

const (
	segPrefix = "queue-"
	segSuffix = ".jsonl"
	// defaultMaxSegBytes triggers compaction: once the active segment
	// outgrows this, the live set is snapshotted into a fresh segment.
	defaultMaxSegBytes = 4 << 20
)

// segName formats the canonical segment file name for ordinal n.
func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// segOrdinal parses a segment file name, reporting ok=false for foreign
// files.
func segOrdinal(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var n int
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// wal is the queue's segmented write-ahead journal. Appends go to the
// highest-ordinal segment and are flushed (and optionally fsynced) before
// Submit acknowledges, which is what "acknowledged jobs are never lost"
// means mechanically. Rotation writes a compacted snapshot segment via
// temp-file+rename — atomic on POSIX — then deletes the older segments, so
// a crash during rotation leaves either the old segment chain or the new
// snapshot plus possibly-stale older segments that replay harmlessly (the
// snapshot record resets replay state).
type wal struct {
	dir     string
	f       *os.File
	seg     int
	size    int64
	maxSeg  int64
	noSync  bool
	tainted error
}

// openWAL opens (creating if needed) the journal under dir and replays
// every segment in ordinal order. Torn tails degrade: complete records are
// returned along with the accumulated []*jsonl.TailError naming each loss.
func openWAL(dir string, maxSegBytes int64, noSync bool) (*wal, []walRecord, []*jsonl.TailError, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("serve: queue dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: queue dir: %w", err)
	}
	var ordinals []int
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := segOrdinal(e.Name()); ok {
			ordinals = append(ordinals, n)
		}
	}
	sort.Ints(ordinals)

	var recs []walRecord
	var losses []*jsonl.TailError
	var activeTail *jsonl.TailError
	for _, n := range ordinals {
		segRecs, err := jsonl.ReadFile[walRecord](filepath.Join(dir, segName(n)))
		activeTail = nil // only the last segment's tail is cut off below
		if errors.As(err, &activeTail) {
			losses = append(losses, activeTail)
		} else if err != nil {
			return nil, nil, nil, fmt.Errorf("serve: queue segment: %w", err)
		}
		for _, r := range segRecs {
			if r.Op == "snapshot" {
				// A compaction point: everything before it is superseded.
				recs = recs[:0]
			}
			recs = append(recs, r)
		}
	}

	seg := 1
	if len(ordinals) > 0 {
		seg = ordinals[len(ordinals)-1]
	}
	path := filepath.Join(dir, segName(seg))
	if activeTail != nil {
		// Cut the torn tail off the active segment so the next append never
		// fuses with it into one garbage line. The loss is already recorded;
		// truncation just makes the on-disk bytes match what replay kept.
		if err := os.Truncate(path, activeTail.Offset); err != nil {
			return nil, nil, nil, fmt.Errorf("serve: queue segment: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: queue segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("serve: queue segment: %w", err)
	}
	if maxSegBytes <= 0 {
		maxSegBytes = defaultMaxSegBytes
	}
	w := &wal{dir: dir, f: f, seg: seg, size: st.Size(), maxSeg: maxSegBytes, noSync: noSync}
	if st.Size() > 0 && !endsWithNewline(path, st.Size()) {
		// A complete final record without its newline (write torn exactly at
		// the boundary): terminate it so the next append starts a fresh line.
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("serve: queue segment: %w", err)
		}
		w.size++
	}
	return w, recs, losses, nil
}

// endsWithNewline reads back the final byte of path.
func endsWithNewline(path string, size int64) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], size-1); err != nil {
		return false
	}
	return b[0] == '\n'
}

// append writes one record durably. The append is acknowledged only after
// the OS write (and fsync unless noSync) succeeds; a failed append taints
// the WAL so the queue stops acknowledging work it cannot make durable.
func (w *wal) append(rec walRecord) error {
	if w.tainted != nil {
		return w.tainted
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal: %w", err)
	}
	line = append(line, '\n')
	if _, err := w.f.Write(line); err != nil {
		w.tainted = fmt.Errorf("serve: journal append: %w", err)
		return w.tainted
	}
	if !w.noSync {
		if err := w.f.Sync(); err != nil {
			w.tainted = fmt.Errorf("serve: journal sync: %w", err)
			return w.tainted
		}
	}
	w.size += int64(len(line))
	return nil
}

// shouldRotate reports whether the active segment outgrew the cap.
func (w *wal) shouldRotate() bool { return w.size >= w.maxSeg }

// rotate compacts the journal: the caller passes every job worth keeping
// (live jobs plus recent terminals for status queries) and rotate writes
// them as a snapshot segment with ordinal seg+1 via temp-file+rename, then
// retires the older segments. A crash anywhere in between is safe:
//   - before the rename: the temp file is ignored by recovery (wrong name);
//   - after the rename, before the deletes: the old segments replay first
//     and the snapshot record then resets replay state.
func (w *wal) rotate(keep []*Job) error {
	if w.tainted != nil {
		return w.tainted
	}
	next := w.seg + 1
	final := filepath.Join(w.dir, segName(next))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	err := enc.Encode(walRecord{Op: "snapshot"})
	for _, j := range keep {
		if err != nil {
			break
		}
		err = enc.Encode(walRecord{Op: "submit", Job: j})
	}
	if err == nil {
		err = jsonl.WriteFileAtomic(final, buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("serve: rotate: %w", err)
	}

	// The snapshot is durable; switch appends over and retire the old chain.
	old, oldSeg := w.f, w.seg
	nf, err := os.OpenFile(final, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: rotate: %w", err)
	}
	st, err := nf.Stat()
	if err != nil {
		nf.Close()
		return fmt.Errorf("serve: rotate: %w", err)
	}
	w.f, w.seg, w.size = nf, next, st.Size()
	old.Close()
	for n := oldSeg; n >= 1; n-- {
		p := filepath.Join(w.dir, segName(n))
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			break // best effort; stale segments replay harmlessly
		}
	}
	return nil
}

// close releases the active segment handle.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
