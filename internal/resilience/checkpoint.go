package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"gnsslna/internal/jsonl"
)

// CheckpointRecord is one line of a JSONL checkpoint file, mirroring the
// obs run-journal convention: one self-describing JSON object per line,
// flushed per append, so the file is valid up to its last record even after
// a crash. Records append; on load, the latest record per stage (matching
// seed and quick mode) wins, so re-running a pipeline safely supersedes
// stale stages.
type CheckpointRecord struct {
	// Stage names the checkpointed pipeline stage, e.g. "extraction".
	Stage string `json:"stage"`
	// Seed and Quick fingerprint the run configuration; a resume only
	// accepts records from an identically configured run, which is what
	// makes resumed results bit-identical.
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick,omitempty"`
	// State is the stage-specific payload.
	State json.RawMessage `json:"state"`
}

// SaveCheckpoint appends one stage record to the JSONL checkpoint at path,
// creating the file when missing. The whole file is rewritten through
// jsonl.WriteFileAtomic, so a crash at any instant leaves either the old
// complete checkpoint or the new complete checkpoint, never a torn file. A
// torn tail already in the file (a line that does not parse) is amputated
// first, the way the job queue's WAL is on open, so the new record always
// lands where RestoreCheckpoint can read it.
func SaveCheckpoint(path, stage string, seed int64, quick bool, state any) error {
	raw, err := json.Marshal(state)
	if err != nil {
		return fmt.Errorf("resilience: checkpoint %s: %w", stage, err)
	}
	line, err := json.Marshal(CheckpointRecord{Stage: stage, Seed: seed, Quick: quick, State: raw})
	if err != nil {
		return fmt.Errorf("resilience: checkpoint %s: %w", stage, err)
	}
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("resilience: checkpoint %s: %w", stage, err)
	}
	// Over bytes in memory, Read can only fail with a *TailError.
	var te *jsonl.TailError
	if _, err := jsonl.Read[CheckpointRecord](bytes.NewReader(prev)); errors.As(err, &te) {
		prev = prev[:te.Offset]
	}
	if len(prev) > 0 && prev[len(prev)-1] != '\n' {
		// A complete last record without its newline: terminate it so the
		// new record starts its own line.
		prev = append(prev, '\n')
	}
	buf := append(append(prev, line...), '\n')
	if err := jsonl.WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("resilience: checkpoint %s: %w", stage, err)
	}
	return nil
}

// LoadCheckpoints parses every record of the checkpoint file at path. A
// missing file yields no records and no error; a torn tail yields the
// complete records before it plus a *jsonl.TailError.
func LoadCheckpoints(path string) ([]CheckpointRecord, error) {
	recs, err := jsonl.ReadFile[CheckpointRecord](path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return recs, fmt.Errorf("resilience: read checkpoint: %w", err)
	}
	return recs, nil
}

// RestoreCheckpoint unmarshals the latest record of the given stage whose
// seed and quick mode match into `into`, reporting whether one was found. A
// torn tail only hides the stages recorded in it: they restore as not found
// and re-run.
func RestoreCheckpoint(path, stage string, seed int64, quick bool, into any) (bool, error) {
	recs, err := LoadCheckpoints(path)
	var te *jsonl.TailError
	if err != nil && !errors.As(err, &te) {
		return false, err
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if r.Stage != stage || r.Seed != seed || r.Quick != quick {
			continue
		}
		if err := json.Unmarshal(r.State, into); err != nil {
			return false, fmt.Errorf("resilience: restore %s: %w", stage, err)
		}
		return true, nil
	}
	return false, nil
}
