// Package replay is the read side of the run journal: it parses Record
// JSONL streams written by internal/obs back into typed runs and computes
// convergence analytics — best-objective-vs-evals traces, per-scope wall and
// evaluation attribution, and run-to-run diffs. The cmd/obsreport CLI is a
// thin shell over this package.
//
// Parsing degrades the way every durable file does (see internal/jsonl):
// a journal truncated by a crash mid-line, or otherwise corrupt, yields
// every complete record plus a *jsonl.TailError, so analytics still run on
// the valid prefix.
package replay

import (
	"errors"
	"fmt"
	"io"

	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs"
)

// Run is one parsed journal.
type Run struct {
	// Records holds every complete record in journal order.
	Records []obs.Record
}

// Parse reads a JSONL journal stream. On a corrupt or truncated tail it
// returns the Run holding every record before the bad line together with a
// *jsonl.TailError; the Run is non-nil whenever the stream could be read.
func Parse(r io.Reader) (*Run, error) {
	recs, err := jsonl.Read[obs.Record](r)
	return &Run{Records: recs}, err
}

// ParseFile parses the JSONL journal at path (see Parse for tail handling).
func ParseFile(path string) (*Run, error) {
	recs, err := jsonl.ReadFile[obs.Record](path)
	var te *jsonl.TailError
	if err != nil && !errors.As(err, &te) {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &Run{Records: recs}, err
}

// FinalMetrics returns the flattened metrics snapshot from the last
// "metrics" record, or nil when the journal has none.
func (r *Run) FinalMetrics() map[string]float64 {
	for i := len(r.Records) - 1; i >= 0; i-- {
		if r.Records[i].Event == "metrics" {
			return r.Records[i].Fields
		}
	}
	return nil
}
