package serve

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnsslna/internal/jsonl"
)

func mustSubmit(t *testing.T, q *Queue, spec JobSpec) *Job {
	t.Helper()
	res, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return res.Job
}

func quickSpec(tenant string) JobSpec {
	return JobSpec{Type: TypeDesign, Tenant: tenant, Quick: true}
}

// TestWALTruncatedTailRecoversPrefix is the queue-reader half of the
// jsonl.TailError contract: a segment ending in a partial record yields
// every complete record plus a typed *jsonl.TailError naming the loss.
func TestWALTruncatedTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("OpenQueue: %v", err)
	}
	for i := 0; i < 5; i++ {
		mustSubmit(t, q, quickSpec("a"))
	}
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Truncate the active segment mid-record, as a crash mid-append would.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("segment has %d lines, want >= 5", len(lines))
	}
	// Keep 3 complete records and half of the 4th.
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(seg, []byte(torn), 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	rep := q2.Recovery()
	if rep.Queued != 3 {
		t.Fatalf("recovered %d queued jobs, want 3 (the complete prefix)", rep.Queued)
	}
	if len(rep.TailLosses) != 1 {
		t.Fatalf("got %d tail losses, want exactly 1: %v", len(rep.TailLosses), rep.TailLosses)
	}
	loss := rep.TailLosses[0]
	if loss.File != seg || loss.Line != 4 {
		t.Fatalf("tail loss = segment %q line %d, want %q line 4", loss.File, loss.Line, seg)
	}
	var te *jsonl.TailError
	if !errors.As(loss, &te) {
		t.Fatal("loss does not unwrap as *jsonl.TailError")
	}
}

// TestWALTornTailDoesNotFuseWithNextAppend: reopening a torn segment and
// appending must not glue the new record onto the torn line.
func TestWALTornTailDoesNotFuseWithNextAppend(t *testing.T) {
	dir := t.TempDir()
	q, _ := OpenQueue(dir, QueueOptions{})
	mustSubmit(t, q, quickSpec("a"))
	q.Close()

	seg := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(seg)
	// Drop the trailing half of the final record including its newline.
	if err := os.WriteFile(seg, data[:len(data)-10], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	j := mustSubmit(t, q2, quickSpec("b"))
	q2.Close()

	q3, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("re-reopen: %v", err)
	}
	defer q3.Close()
	got, err := q3.Get(j.ID)
	if err != nil {
		t.Fatalf("the append after the torn tail was lost: %v", err)
	}
	if got.Spec.Tenant != "b" {
		t.Fatalf("recovered wrong job: %+v", got)
	}
}

// TestWALRotationCompactsAndSurvivesReplay drives enough traffic through a
// tiny segment cap to force several rotations, then proves a cold reopen
// reconstructs exactly the retained set.
func TestWALRotationCompactsAndSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueOptions{MaxSegBytes: 4096, KeepTerminal: 5, NoSync: true})
	if err != nil {
		t.Fatalf("OpenQueue: %v", err)
	}
	ctx := testContext(t)
	var ids []string
	for i := 0; i < 40; i++ {
		j := mustSubmit(t, q, quickSpec("a"))
		ids = append(ids, j.ID)
		claimed, err := q.Claim(ctx)
		if err != nil {
			t.Fatalf("Claim: %v", err)
		}
		if _, err := q.Complete(claimed.ID, json.RawMessage(`{"ok":true}`)); err != nil {
			t.Fatalf("Complete: %v", err)
		}
	}
	// Rotation must have retired early segments.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatal("segment 1 still present after rotations")
	}
	q.Close()

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	rep := q2.Recovery()
	if rep.Queued != 0 || rep.Resumed != 0 {
		t.Fatalf("phantom live jobs after compaction: %+v", rep)
	}
	if rep.Terminal == 0 || rep.Terminal > 20 {
		t.Fatalf("retained %d terminal jobs, want bounded near KeepTerminal=5 plus the in-segment tail", rep.Terminal)
	}
	// The newest job must still be queryable; the oldest must have aged out.
	if _, err := q2.Get(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest job lost: %v", err)
	}
	if _, err := q2.Get(ids[0]); err == nil {
		t.Fatal("oldest job survived past KeepTerminal retention")
	}
}

// TestWALRotationCrashBetweenRenameAndDelete simulates the rotation crash
// window: the snapshot segment landed but the old segments were never
// deleted. Replay must prefer the snapshot (the "snapshot" record resets
// state) and not duplicate jobs.
func TestWALRotationCrashBetweenRenameAndDelete(t *testing.T) {
	dir := t.TempDir()
	q, _ := OpenQueue(dir, QueueOptions{})
	j := mustSubmit(t, q, quickSpec("a"))
	q.Close()

	// Hand-write a snapshot segment 2 as rotate would, leaving segment 1 in
	// place (the crash-before-delete state). The snapshot claims the job
	// completed.
	done := *j
	done.State = StateSucceeded
	rec1, _ := json.Marshal(walRecord{Op: "snapshot"})
	rec2, _ := json.Marshal(walRecord{Op: "submit", Job: &done})
	body := string(rec1) + "\n" + string(rec2) + "\n"
	if err := os.WriteFile(filepath.Join(dir, segName(2)), []byte(body), 0o644); err != nil {
		t.Fatalf("write snapshot segment: %v", err)
	}

	q2, err := OpenQueue(dir, QueueOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer q2.Close()
	got, err := q2.Get(j.ID)
	if err != nil {
		t.Fatalf("job lost across rotation crash: %v", err)
	}
	if got.State != StateSucceeded {
		t.Fatalf("stale pre-snapshot state won: %s", got.State)
	}
	if q2.Depth() != 0 {
		t.Fatalf("queue depth %d after snapshot replay, want 0", q2.Depth())
	}
}
