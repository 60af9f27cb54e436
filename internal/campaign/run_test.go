package campaign

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -update): %v", path, err)
	}
	if string(want) != string(got) {
		t.Errorf("%s mismatch:\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestRunTwoCellCampaign(t *testing.T) {
	spec := testSpec()
	spec.Axes.Algorithms = []string{"attain", "nsga2"}
	dir := t.TempDir()
	s, err := Run(spec, RunOptions{OutDir: dir, Parallel: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.CellCount != 2 || len(s.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", s.CellCount)
	}
	if s.OKCount != 2 {
		t.Fatalf("ok = %d, want 2: %+v", s.OKCount, s.Cells)
	}
	for _, c := range s.Cells {
		if c.Evals == 0 || c.WorstNFdB.IsNaN() {
			t.Fatalf("cell %s has no graded result: %+v", c.ID, c)
		}
	}
	if s.Cells[1].FrontSize == 0 {
		t.Fatalf("nsga2 cell reports empty front: %+v", s.Cells[1])
	}
	// Artifacts present and consistent.
	loaded, err := LoadSummary(filepath.Join(dir, SummaryFile))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SpecDigest != spec.Digest() {
		t.Fatalf("summary digest %s, want %s", loaded.SpecDigest, spec.Digest())
	}
	md := string(readFile(t, filepath.Join(dir, ResultsFile)))
	for _, c := range s.Cells {
		if !strings.Contains(md, c.ID) {
			t.Fatalf("RESULTS.md misses cell %s:\n%s", c.ID, md)
		}
	}
}

// TestRunResumeBitIdentical pins the resume guarantee: a campaign with a
// partial checkpoint (simulating a killed run) completes to summary bytes
// identical to an uninterrupted reference, and completed cells are not
// recomputed.
func TestRunResumeBitIdentical(t *testing.T) {
	spec := testSpec()
	spec.Axes.Seeds = []int64{1, 2}

	refDir := t.TempDir()
	if _, err := Run(spec, RunOptions{OutDir: refDir, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	refSummary := readFile(t, filepath.Join(refDir, SummaryFile))
	refResults := readFile(t, filepath.Join(refDir, ResultsFile))

	// A "killed" run: keep only the first checkpoint record (the atomic
	// checkpoint writer guarantees whole-record prefixes).
	ckpt := readFile(t, filepath.Join(refDir, CheckpointFile))
	lines := bytes.SplitAfter(ckpt, []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("reference checkpoint has %d records, want >= 2", len(lines))
	}
	partialDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(partialDir, CheckpointFile), lines[0], 0o644); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	if _, err := Run(spec, RunOptions{OutDir: partialDir, Parallel: 1,
		Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "1 restored from checkpoint") {
		t.Fatalf("resume did not restore the checkpointed cell:\n%s", logged.String())
	}
	if got := readFile(t, filepath.Join(partialDir, SummaryFile)); !bytes.Equal(got, refSummary) {
		t.Errorf("resumed summary differs from uninterrupted reference:\n--- ref ---\n%s\n--- resumed ---\n%s", refSummary, got)
	}
	if got := readFile(t, filepath.Join(partialDir, ResultsFile)); !bytes.Equal(got, refResults) {
		t.Errorf("resumed RESULTS.md differs from uninterrupted reference")
	}
}

// TestRunTornCheckpointResumes: a checkpoint whose last line was torn by a
// crash mid-write must not wedge the campaign. The run restores the
// complete records, recomputes the torn cell, amputates the torn line on
// its next save, and a second run then restores every cell.
func TestRunTornCheckpointResumes(t *testing.T) {
	spec := testSpec()
	spec.Axes.Seeds = []int64{1, 2}
	refDir := t.TempDir()
	if _, err := Run(spec, RunOptions{OutDir: refDir, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	refSummary := readFile(t, filepath.Join(refDir, SummaryFile))
	lines := bytes.SplitAfter(readFile(t, filepath.Join(refDir, CheckpointFile)), []byte("\n"))
	torn := append(append([]byte{}, lines[0]...), lines[1][:len(lines[1])/2]...)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, CheckpointFile), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{"2 cells, 1 restored from checkpoint", "2 cells, 2 restored from checkpoint"} {
		var logged strings.Builder
		if _, err := Run(spec, RunOptions{OutDir: dir, Parallel: 1,
			Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }}); err != nil {
			t.Fatalf("Run over a torn checkpoint: %v", err)
		}
		if !strings.Contains(logged.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, logged.String())
		}
		if got := readFile(t, filepath.Join(dir, SummaryFile)); !bytes.Equal(got, refSummary) {
			t.Fatalf("summary after a torn checkpoint differs from the reference")
		}
	}
}

// TestRunRerunRestoresEverything pins full-restore idempotence: re-running
// a finished campaign restores every cell and rewrites identical bytes.
func TestRunRerunRestoresEverything(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	if _, err := Run(spec, RunOptions{OutDir: dir, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	first := readFile(t, filepath.Join(dir, SummaryFile))
	var logged strings.Builder
	if _, err := Run(spec, RunOptions{OutDir: dir, Parallel: 1,
		Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "1 cells, 1 restored from checkpoint") {
		t.Fatalf("rerun recomputed cells:\n%s", logged.String())
	}
	if got := readFile(t, filepath.Join(dir, SummaryFile)); !bytes.Equal(got, first) {
		t.Error("rerun changed summary bytes")
	}
}

// TestRunStaleCheckpointIgnored pins the digest guard: checkpoints written
// under a different spec definition are never restored into a run.
func TestRunStaleCheckpointIgnored(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	if _, err := Run(spec, RunOptions{OutDir: dir, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	// Same cell grid, different budget: the digest changes, the cell IDs
	// do not — exactly the stale case the digest key exists to catch.
	edited := testSpec()
	edited.Budget.GlobalEvals += 10
	if edited.Expand()[0].ID != spec.Expand()[0].ID {
		t.Fatal("fixture broken: cell IDs should match")
	}
	var logged strings.Builder
	if _, err := Run(edited, RunOptions{OutDir: dir, Parallel: 1,
		Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged.String(), "0 restored from checkpoint") {
		t.Fatalf("stale checkpoint leaked into an edited campaign:\n%s", logged.String())
	}
}

// TestRunParallelMatchesSerial pins determinism across the cell fan-out:
// the summary bytes are independent of the Parallel setting.
func TestRunParallelMatchesSerial(t *testing.T) {
	spec := testSpec()
	spec.Axes.Seeds = []int64{1, 2}
	serialDir, parDir := t.TempDir(), t.TempDir()
	if _, err := Run(spec, RunOptions{OutDir: serialDir, Parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, RunOptions{OutDir: parDir, Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	a := readFile(t, filepath.Join(serialDir, SummaryFile))
	b := readFile(t, filepath.Join(parDir, SummaryFile))
	if !bytes.Equal(a, b) {
		t.Error("parallel run changed summary bytes")
	}
}

func TestRunCellErrorRecorded(t *testing.T) {
	// An unknown algorithm smuggled past Normalize must surface as a cell
	// error, not abort the campaign.
	spec := testSpec()
	cells := spec.Expand()
	res := runCell(spec, Cell{ID: "x", Band: cells[0].Band, Spec: cells[0].Spec,
		Substrate: "ro4350", Device: "golden", Algorithm: "pso", Seed: 1}, nil)
	if res.Status != "error" || !strings.Contains(res.Error, "pso") {
		t.Fatalf("res = %+v", res)
	}
}
