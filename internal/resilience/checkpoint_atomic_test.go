package resilience

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type stageState struct {
	X int     `json:"x"`
	Y float64 `json:"y"`
}

// TestSaveCheckpointAtomicKilledMidWrite simulates a writer killed halfway
// through a save: the temp file the atomic writer uses is left holding a
// torn, unparseable prefix. The existing good checkpoint must stay fully
// readable, and a subsequent save must overwrite the debris and succeed.
func TestSaveCheckpointAtomicKilledMidWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stages.jsonl")

	want := stageState{X: 7, Y: 3.25}
	if err := SaveCheckpoint(path, "extraction", 1, true, want); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	// Kill a second save halfway: the atomic writer stages into path+".tmp"
	// and renames only after a complete, synced write, so a crash mid-write
	// leaves exactly this — a partial temp file and the untouched original.
	if err := os.WriteFile(path+".tmp", []byte(`{"stage":"design","seed":1,"st`), 0o644); err != nil {
		t.Fatalf("plant torn temp: %v", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint after simulated crash: %v", err)
	}
	if string(after) != string(good) {
		t.Fatalf("checkpoint corrupted by torn write:\n got %q\nwant %q", after, good)
	}
	var got stageState
	ok, err := RestoreCheckpoint(path, "extraction", 1, true, &got)
	if err != nil || !ok {
		t.Fatalf("RestoreCheckpoint after crash: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("restored state = %+v, want %+v", got, want)
	}

	// The next save must clobber the debris and leave both records intact.
	if err := SaveCheckpoint(path, "design", 1, true, stageState{X: 9}); err != nil {
		t.Fatalf("SaveCheckpoint over debris: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived a successful save: %v", err)
	}
	recs, err := LoadCheckpoints(path)
	if err != nil {
		t.Fatalf("LoadCheckpoints: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

// TestSaveCheckpointCrashBeforeRename covers the other crash window: a
// complete temp file written but the rename never executed. The original
// checkpoint must win, and restore must not see the unrenamed record.
func TestSaveCheckpointCrashBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stages.jsonl")
	if err := SaveCheckpoint(path, "extraction", 1, false, stageState{X: 1}); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	// A fully written temp that never renamed: readers must ignore it.
	if err := os.WriteFile(path+".tmp",
		[]byte(`{"stage":"design","seed":1,"state":{"x":5,"y":0}}`+"\n"), 0o644); err != nil {
		t.Fatalf("plant complete temp: %v", err)
	}
	var got stageState
	ok, err := RestoreCheckpoint(path, "design", 1, false, &got)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if ok {
		t.Fatalf("restored a stage that was never durably committed: %+v", got)
	}
}

// TestSaveCheckpointHealsTornTail proves that a torn tail left by a crashed
// writer (no trailing newline, partial JSON) is amputated by the next save:
// the file then holds only the new record, and it restores.
func TestSaveCheckpointHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stages.jsonl")
	if err := os.WriteFile(path, []byte(`{"stage":"extraction","seed":1,"st`), 0o644); err != nil {
		t.Fatalf("plant torn tail: %v", err)
	}
	if err := SaveCheckpoint(path, "design", 1, false, stageState{X: 3}); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], `{"stage":"design"`) {
		t.Fatalf("got %d lines, want only the new record:\n%s", len(lines), data)
	}
	var got stageState
	ok, err := RestoreCheckpoint(path, "design", 1, false, &got)
	if err != nil || !ok || got.X != 3 {
		t.Fatalf("RestoreCheckpoint = ok %v, %+v, err %v; want ok with X == 3", ok, got, err)
	}
}

// TestRestoreCheckpointUsesCompletePrefix: a torn tail hides only the stage
// it was recording; the complete records before it still restore.
func TestRestoreCheckpointUsesCompletePrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stages.jsonl")
	if err := SaveCheckpoint(path, "extraction", 1, false, stageState{X: 1}); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"stage":"design","seed":1,"st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got stageState
	if ok, err := RestoreCheckpoint(path, "extraction", 1, false, &got); err != nil || !ok || got.X != 1 {
		t.Fatalf("complete stage: ok %v, %+v, err %v", ok, got, err)
	}
	if ok, err := RestoreCheckpoint(path, "design", 1, false, &got); err != nil || ok {
		t.Fatalf("torn stage: ok %v, err %v; want not found, no error", ok, err)
	}
}
