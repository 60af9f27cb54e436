package replay

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func parseFixture(t *testing.T, name string) *Run {
	t.Helper()
	r, err := ParseFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("ParseFile(%s): %v", name, err)
	}
	return r
}

func TestParseCompleteJournal(t *testing.T) {
	r := parseFixture(t, "run_a.jsonl")
	if len(r.Records) != 7 {
		t.Fatalf("records = %d, want 7", len(r.Records))
	}
	if r.Records[5].Event != "done" || r.Records[5].Best != 0.42 {
		t.Fatalf("record 6 = %+v", r.Records[5])
	}
	m := r.FinalMetrics()
	if m["counter.design.attain.de.evals"] != 120 {
		t.Fatalf("final metrics = %v", m)
	}
}

// A journal truncated by a crash mid-line must yield every complete record
// plus a typed tail error — the same degradation contract as the resilience
// checkpoints' corrupt-file handling.
func TestParseTruncatedTail(t *testing.T) {
	r, err := ParseFile(filepath.Join("testdata", "truncated.jsonl"))
	var te *jsonl.TailError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *jsonl.TailError", err)
	}
	if te.Line != 2 {
		t.Errorf("tail line = %d, want 2", te.Line)
	}
	if r == nil || len(r.Records) != 1 {
		t.Fatalf("records = %+v, want the 1 complete record", r)
	}
	if r.Records[0].Scope != "extract.step1.coldfet" {
		t.Errorf("surviving record = %+v", r.Records[0])
	}
	if !strings.Contains(te.Error(), "line 2") {
		t.Errorf("error text %q does not name the line", te.Error())
	}
}

func TestParseCorruptMiddleLine(t *testing.T) {
	in := `{"seq":1,"event":"generation","scope":"s","gen":1,"evals":1,"best":1,"t_ms":1,"wall_ms":1}
not json at all
{"seq":3,"event":"done","scope":"s","gen":1,"evals":2,"best":1,"t_ms":2,"wall_ms":2}
`
	r, err := Parse(strings.NewReader(in))
	var te *jsonl.TailError
	if !errors.As(err, &te) || te.Line != 2 {
		t.Fatalf("err = %v, want TailError at line 2", err)
	}
	if len(r.Records) != 1 {
		t.Fatalf("records = %d, want 1 (parse stops at the corrupt line)", len(r.Records))
	}
}

func TestParseEmptyAndBlankLines(t *testing.T) {
	r, err := Parse(strings.NewReader("\n\n"))
	if err != nil || len(r.Records) != 0 {
		t.Fatalf("blank journal: records=%d err=%v", len(r.Records), err)
	}
}

func TestTrace(t *testing.T) {
	r := parseFixture(t, "run_a.jsonl")
	pts := r.Trace("design.attain.de")
	if len(pts) != 3 {
		t.Fatalf("trace points = %d, want 3 (2 generations + done)", len(pts))
	}
	if pts[0].Best != 1.5 || pts[2].Best != 0.42 || pts[2].Evals != 120 {
		t.Fatalf("trace = %+v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Best > pts[i-1].Best {
			t.Errorf("best regressed at point %d: %g > %g", i, pts[i].Best, pts[i-1].Best)
		}
	}
	if got := len(r.Trace("")); got != 3 {
		t.Errorf("unfiltered trace = %d points, want 3", got)
	}
	if got := len(r.Trace("no.such.scope")); got != 0 {
		t.Errorf("unknown scope trace = %d points, want 0", got)
	}
}

func TestScopeStatsAttribution(t *testing.T) {
	r := parseFixture(t, "run_a.jsonl")
	stats := r.ScopeStats()
	byScope := map[string]ScopeStat{}
	for _, s := range stats {
		byScope[s.Scope] = s
	}
	de := byScope["design.attain.de"]
	// No spans: wall and evals come from the done record, not the sum of
	// generation wall times (which would double count).
	if de.WallMs != 9.0 || de.Evals != 120 || de.Gens != 2 || de.Runs != 1 || de.Faults != 1 {
		t.Fatalf("design scope = %+v", de)
	}
	if de.Best != 0.42 {
		t.Errorf("design best = %g, want 0.42", de.Best)
	}
	cf := byScope["extract.step1.coldfet"]
	// Spans present: wall and evals come from span-end records.
	if cf.WallMs != 4.9 || cf.Evals != 120 || cf.Spans != 1 {
		t.Fatalf("coldfet scope = %+v", cf)
	}
	if !cf.Best.IsNaN() {
		t.Errorf("coldfet best = %g, want NaN (no objective reported)", float64(cf.Best))
	}
	// Sorted by scope name.
	for i := 1; i < len(stats); i++ {
		if stats[i].Scope < stats[i-1].Scope {
			t.Errorf("scopes out of order: %q after %q", stats[i].Scope, stats[i-1].Scope)
		}
	}
}

func TestSummarize(t *testing.T) {
	r := parseFixture(t, "run_a.jsonl")
	s := r.Summarize()
	if s.Records != 7 || s.DurationMs != 11.0 || s.TotalEvals != 120 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Best != 0.42 || s.BestScope != "design.attain.de" {
		t.Fatalf("best = %g (%s), want 0.42 (design.attain.de)", s.Best, s.BestScope)
	}
	if s.Events["generation"] != 2 || s.Events["span-end"] != 1 || s.Events["metrics"] != 1 {
		t.Fatalf("event counts = %v", s.Events)
	}
}

func TestCompareDeltas(t *testing.T) {
	a := parseFixture(t, "run_a.jsonl")
	b := parseFixture(t, "run_b.jsonl")
	deltas := Compare(a, b)
	byScope := map[string]ScopeDelta{}
	for _, d := range deltas {
		byScope[d.Scope] = d
	}
	de := byScope["design.attain.de"]
	if de.WallAMs != 9.0 || de.WallBMs != 18.0 || de.WallPct != 100.0 {
		t.Fatalf("design wall delta = %+v", de)
	}
	if de.EvalsA != 120 || de.EvalsB != 240 || de.EvalsPct != 100.0 {
		t.Fatalf("design evals delta = %+v", de)
	}
	cf := byScope["extract.step1.coldfet"]
	if math.Abs(float64(cf.WallPct)-22.448979591836736) > 1e-9 || cf.EvalsPct != 0 {
		t.Fatalf("coldfet delta = %+v", cf)
	}
	vna := byScope["vna.campaign"]
	if vna.OnlyIn != "b" || !vna.EvalsPct.IsNaN() {
		t.Fatalf("vna delta = %+v, want only_in=b with NaN pct", vna)
	}
	// Symmetric: comparing b to a flips the only-in marker.
	rev := Compare(b, a)
	for _, d := range rev {
		if d.Scope == "vna.campaign" && d.OnlyIn != "a" {
			t.Fatalf("reversed vna delta = %+v, want only_in=a", d)
		}
	}
}

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

// The compare report is pinned byte for byte: obsreport compare must keep
// reporting per-scope wall-time and eval deltas in this exact shape.
func TestCompareGolden(t *testing.T) {
	a := parseFixture(t, "run_a.jsonl")
	b := parseFixture(t, "run_b.jsonl")
	var out strings.Builder
	if err := WriteCompareText(&out, "run_a.jsonl", "run_b.jsonl", a, b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "compare_golden.txt", []byte(out.String()))
}

func TestSummaryGolden(t *testing.T) {
	r := parseFixture(t, "run_a.jsonl")
	var out strings.Builder
	if err := WriteSummaryText(&out, "run_a.jsonl", r); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "summary_golden.txt", []byte(out.String()))
}

func TestTraceGolden(t *testing.T) {
	r := parseFixture(t, "run_a.jsonl")
	var out strings.Builder
	if err := WriteTraceText(&out, "design.attain.de", r); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_golden.txt", []byte(out.String()))
}

// Round-trip sanity: a journal written by obs.Journal parses back with
// identical analytics inputs.
func TestParseMatchesObsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	hub := obs.NewHub(nil, j)
	hub.Observe(obs.Event{Kind: obs.KindGeneration, Scope: "x", Gen: 1, Evals: 10, Best: 2})
	hub.Observe(obs.Event{Kind: obs.KindDone, Scope: "x", Gen: 1, Evals: 20, Best: 1, Value: 3})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if len(r.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(r.Records))
	}
	s := r.Summarize()
	if s.TotalEvals != 20 || s.Best != 1 || s.BestScope != "x" {
		t.Fatalf("summary = %+v", s)
	}
}

// Two journals with completely disjoint scope sets must diff cleanly: no
// panic, every row marked only_in, and the text report listing the added
// and removed scopes explicitly (the campaign-diff reuse contract).
func TestCompareDisjointRunSets(t *testing.T) {
	mk := func(scopes ...string) *Run {
		r := &Run{}
		for i, s := range scopes {
			r.Records = append(r.Records, obs.Record{
				Seq: int64(i + 1), TMs: float64(i), Event: "done",
				Scope: s, Evals: int64(10 * (i + 1)), Best: 1,
			})
		}
		return r
	}
	cases := []struct {
		name                     string
		a, b                     *Run
		wantADeltas, wantBDeltas int
	}{
		{"zero overlap", mk("alpha.x", "alpha.y"), mk("beta.z"), 2, 1},
		{"empty A", mk(), mk("beta.z"), 0, 1},
		{"empty B", mk("alpha.x"), mk(), 1, 0},
		{"both empty", mk(), mk(), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			deltas := Compare(tc.a, tc.b)
			onlyA, onlyB := OnlyScopes(deltas)
			if len(onlyA) != tc.wantADeltas || len(onlyB) != tc.wantBDeltas {
				t.Fatalf("only_a=%v only_b=%v, want %d/%d", onlyA, onlyB, tc.wantADeltas, tc.wantBDeltas)
			}
			for _, d := range deltas {
				if d.OnlyIn == "" {
					t.Errorf("disjoint scope %q lacks only_in marker", d.Scope)
				}
			}
			var out strings.Builder
			if err := WriteCompareText(&out, "a", "b", tc.a, tc.b); err != nil {
				t.Fatalf("WriteCompareText: %v", err)
			}
			text := out.String()
			if len(onlyA) > 0 && !strings.Contains(text, "removed in B (only in A): "+strings.Join(onlyA, ", ")) {
				t.Errorf("removed scopes not listed:\n%s", text)
			}
			if len(onlyB) > 0 && !strings.Contains(text, "added in B (only in B): "+strings.Join(onlyB, ", ")) {
				t.Errorf("added scopes not listed:\n%s", text)
			}
			if len(deltas) > 0 && !strings.Contains(text, "share no scopes") {
				t.Errorf("disjoint note missing:\n%s", text)
			}
		})
	}
}
