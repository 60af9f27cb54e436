package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs"
	"gnsslna/internal/obs/replay"
)

// TestServdTraceChaosChild is not a test: it is process 1 of the
// trace-continuity chaos proof. It serves over SERVD_TRACE_CHAOS_DIR with a
// journal anchored by an epoch record, submits jobs through the HTTP handler
// (so the root span-begin is journaled exactly as production would), prints
// each job's acknowledged ID and durable trace ID, and idles mid-burn until
// the parent SIGKILLs it.
func TestServdTraceChaosChild(t *testing.T) {
	if os.Getenv("SERVD_TRACE_CHAOS_CHILD") != "1" {
		t.Skip("helper process for TestChaosTraceContinuityAcrossSIGKILL")
	}
	dir := os.Getenv("SERVD_TRACE_CHAOS_DIR")
	j, err := obs.OpenJournal(filepath.Join(dir, "journal1.jsonl"))
	if err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	if err := j.AppendEpoch(); err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	slow := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		span, end := obs.StartSpan(o, "solver.chaos")
		_ = span
		defer end(1)
		select {
		case <-time.After(400 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return json.RawMessage(`{}`), nil
	})
	s, err := New(Options{
		Dir:      filepath.Join(dir, "data"),
		Workers:  2,
		Runner:   slow,
		Observer: obs.NewHub(nil, j),
	})
	if err != nil {
		fmt.Printf("CHILD-ERROR %v\n", err)
		os.Exit(1)
	}
	s.Start()
	h := s.Handler()
	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(JobSpec{
			Type: TypeDesign, Tenant: "chaos", Quick: true, Seed: int64(i + 1),
			DedupeKey: fmt.Sprintf("trace-chaos-%d", i),
		})
		req := httptest.NewRequest("POST", "/jobs", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var job Job
		if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil || job.ID == "" || job.Trace == 0 {
			fmt.Printf("CHILD-ERROR submit %d: status %d body %s\n", i, rec.Code, rec.Body.String())
			os.Exit(1)
		}
		fmt.Printf("ACK %s %d\n", job.ID, job.Trace)
	}
	fmt.Println("READY")
	time.Sleep(time.Hour) // the parent SIGKILLs us long before this
}

// loadChaosJournal parses a journal tolerating the torn tail a SIGKILL
// mid-append leaves behind.
func loadChaosJournal(t *testing.T, path string) *replay.Run {
	t.Helper()
	r, err := replay.ParseFile(path)
	if err != nil {
		var te *jsonl.TailError
		if errors.As(err, &te) {
			return r
		}
		t.Fatalf("parse %s: %v", path, err)
	}
	return r
}

// TestChaosTraceContinuityAcrossSIGKILL is the trace-durability proof behind
// the durable job traces: jobs are submitted to a server, the process is
// SIGKILLed mid-attempt, a fresh process over the same data directory
// finishes the work into a second journal — and merging the two journals
// must reconstruct exactly one causal trace per job, rooted at the submit,
// with the killed process's attempt and the restart's attempt as distinct
// sibling spans under the same root.
func TestChaosTraceContinuityAcrossSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos proof skipped in -short")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestServdTraceChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(), "SERVD_TRACE_CHAOS_CHILD=1", "SERVD_TRACE_CHAOS_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	defer cmd.Process.Kill()

	traces := map[string]uint64{} // job ID -> durable trace ID
	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ACK "):
			fields := strings.Fields(line)
			if len(fields) != 3 {
				t.Fatalf("bad ACK line %q", line)
			}
			id, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil || id == 0 {
				t.Fatalf("bad trace in ACK line %q", line)
			}
			traces[fields[1]] = id
		case strings.HasPrefix(line, "CHILD-ERROR"):
			t.Fatalf("child failed: %s", line)
		case line == "READY":
			ready = true
		}
		if ready {
			break
		}
	}
	if !ready || len(traces) != 4 {
		t.Fatalf("child acknowledged %d traced jobs (ready=%v), want 4", len(traces), ready)
	}

	// Kill only once an attempt span has hit journal 1, so at least one job
	// is mid-attempt — its trace must span both processes.
	journal1 := filepath.Join(dir, "journal1.jsonl")
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(journal1)
		if strings.Contains(string(data), scopeJobAttempt) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no attempt span reached journal1 before the deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	_ = cmd.Wait()

	// Process 2: a fresh server over the same queue, journaling to its own
	// epoch-anchored file, drains everything the child acknowledged.
	j2, err := obs.OpenJournal(filepath.Join(dir, "journal2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendEpoch(); err != nil {
		t.Fatal(err)
	}
	quick := RunnerFunc(func(ctx context.Context, job *Job, dir string, o obs.Observer) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	s, err := New(Options{
		Dir:      filepath.Join(dir, "data"),
		Workers:  2,
		Runner:   quick,
		Observer: obs.NewHub(nil, j2),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for id := range traces {
		waitTerminal(t, s.Queue(), id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Stitch the two process journals and reconstruct: one tree per job.
	merged := replay.Merge(
		loadChaosJournal(t, journal1),
		loadChaosJournal(t, filepath.Join(dir, "journal2.jsonl")),
	)
	trees := map[uint64]*replay.TraceTree{}
	for _, tree := range replay.BuildTraces(merged) {
		trees[tree.TraceID] = tree
	}
	crossProcess := 0
	for id, trace := range traces {
		tree := trees[trace]
		if tree == nil {
			t.Fatalf("job %s: no reconstructed trace %d", id, trace)
		}
		if len(tree.Roots) != 1 {
			t.Fatalf("job %s: %d roots, want one causal trace", id, len(tree.Roots))
		}
		root := tree.Roots[0]
		if root.Scope != "job.design.chaos" || root.ID != 1 {
			t.Fatalf("job %s: root = %q span %d", id, root.Scope, root.ID)
		}
		claims := map[uint64]bool{}
		attempts := map[uint64]bool{}
		for _, c := range root.Children {
			if c.Scope == scopeJobAttempt {
				attempts[c.ID] = true
				claims[c.ID>>jobClaimShift] = true
			}
		}
		if len(attempts) == 0 {
			t.Fatalf("job %s: no attempt spans under the root", id)
		}
		if len(claims) > 1 {
			crossProcess++
		}
	}
	if crossProcess == 0 {
		t.Fatalf("no job carries attempt spans from both processes; the kill landed outside the attempt window")
	}

	// The serve analytics agree: every acknowledged job completed exactly once.
	rep := replay.ServeSummary(merged)
	if rep.Jobs != 4 || rep.Done != 4 || rep.Succeeded != 4 {
		t.Fatalf("serve summary = %+v, want 4 jobs succeeded", rep)
	}
	if len(rep.Tenants) != 1 || rep.Tenants[0].Tenant != "chaos" {
		t.Fatalf("tenants = %+v", rep.Tenants)
	}
}
