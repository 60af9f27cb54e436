// Command obsreport analyzes JSONL run journals written by the -journal
// flag of lnaopt, extract and experiments: convergence traces, per-scope
// wall/eval attribution and run-to-run comparisons.
//
// Usage:
//
//	obsreport summary [-json] run.jsonl
//	obsreport compare [-json] a.jsonl b.jsonl
//	obsreport trace   [-json] [-scope design.attain] run.jsonl
//	obsreport trace   -tree run.jsonl [more.jsonl...]
//	obsreport trace   -perfetto run.jsonl [more.jsonl...] > trace.json
//	obsreport serve   [-json] run.jsonl [more.jsonl...]
//	obsreport campaign-diff [-json] a/campaign.summary.json b/campaign.summary.json
//
// The -tree form reconstructs the causal span tree (run → solver →
// generations → pool workers) from the trace identity stamped on each
// record; -perfetto emits the same tree as Chrome trace-event JSON for
// chrome://tracing or ui.perfetto.dev. Both accept several journals — the
// per-process journals of a crashed-and-restarted lnaservd — and stitch them
// onto one timeline via their epoch records, one tree per job trace.
//
// The serve form summarizes (merged) lnaservd journals: throughput, outcome
// and retry counts, scheduled backoff, and per-tenant exact queue-wait and
// end-to-end latency percentiles.
//
// The campaign-diff form compares two campaign summaries cell by cell:
// changed metrics (NaN-safe — two absent values are equal), plus explicit
// added/removed listings for cells present in only one campaign.
//
// A journal truncated by a crash mid-line is reported on stderr and
// analyzed up to its last complete record.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gnsslna/internal/campaign"
	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs/replay"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: obsreport summary|compare|trace|serve|campaign-diff [flags] <journal.jsonl> [more.jsonl...]")
}

// loadMerged loads one or more journals and, when several are given, merges
// them onto one timeline anchored on their epoch records.
func loadMerged(paths []string, stderr io.Writer) (*replay.Run, error) {
	runs := make([]*replay.Run, 0, len(paths))
	for _, p := range paths {
		r, err := load(p, stderr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	if len(runs) == 1 {
		return runs[0], nil
	}
	return replay.Merge(runs...), nil
}

// load parses one journal, degrading gracefully on a corrupt tail: the
// complete prefix is analyzed and the tail error is reported on stderr.
func load(path string, stderr io.Writer) (*replay.Run, error) {
	r, err := replay.ParseFile(path)
	if err != nil {
		var te *jsonl.TailError
		if errors.As(err, &te) {
			fmt.Fprintf(stderr, "obsreport: warning: %v (analyzing the %d complete records)\n",
				te, len(r.Records))
			return r, nil
		}
		return nil, err
	}
	return r, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	fs := flag.NewFlagSet("obsreport "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit JSON instead of text")
	scope := fs.String("scope", "", "restrict the trace to one scope (trace only)")
	asTree := fs.Bool("tree", false, "render the causal span tree (trace only)")
	asPerfetto := fs.Bool("perfetto", false, "emit Chrome trace-event JSON (trace only)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	emit := func(v any) error {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}

	switch cmd {
	case "summary":
		if fs.NArg() != 1 {
			return usage()
		}
		r, err := load(fs.Arg(0), stderr)
		if err != nil {
			return err
		}
		if *asJSON {
			return emit(r.Summarize())
		}
		return replay.WriteSummaryText(stdout, filepath.Base(fs.Arg(0)), r)
	case "compare":
		if fs.NArg() != 2 {
			return usage()
		}
		a, err := load(fs.Arg(0), stderr)
		if err != nil {
			return err
		}
		b, err := load(fs.Arg(1), stderr)
		if err != nil {
			return err
		}
		if *asJSON {
			return emit(replay.Compare(a, b))
		}
		return replay.WriteCompareText(stdout,
			filepath.Base(fs.Arg(0)), filepath.Base(fs.Arg(1)), a, b)
	case "trace":
		if fs.NArg() < 1 {
			return usage()
		}
		if fs.NArg() > 1 && !*asPerfetto && !*asTree {
			return fmt.Errorf("multiple journals need -tree or -perfetto (merged trace reconstruction)")
		}
		r, err := loadMerged(fs.Args(), stderr)
		if err != nil {
			return err
		}
		switch {
		case *asPerfetto:
			return replay.WritePerfettoTrace(stdout, r)
		case *asTree:
			return replay.WriteTraceTree(stdout, r)
		case *asJSON:
			return emit(r.Trace(*scope))
		}
		return replay.WriteTraceText(stdout, *scope, r)
	case "serve":
		if fs.NArg() < 1 {
			return usage()
		}
		r, err := loadMerged(fs.Args(), stderr)
		if err != nil {
			return err
		}
		rep := replay.ServeSummary(r)
		if *asJSON {
			return emit(rep)
		}
		return replay.WriteServeText(stdout, rep)
	case "campaign-diff":
		if fs.NArg() != 2 {
			return usage()
		}
		a, err := campaign.LoadSummary(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := campaign.LoadSummary(fs.Arg(1))
		if err != nil {
			return err
		}
		if *asJSON {
			return emit(campaign.Diff(a, b))
		}
		return campaign.WriteDiffText(stdout, fs.Arg(0), fs.Arg(1), a, b)
	}
	return usage()
}
