package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"gnsslna/internal/jsonl"
	"gnsslna/internal/obs/replay"
)

// SummaryFile and ResultsFile are the artifact names a campaign run emits
// into its output directory; CheckpointFile is the resumable cell ledger.
const (
	SummaryFile    = "campaign.summary.json"
	ResultsFile    = "RESULTS.md"
	CheckpointFile = "campaign.checkpoint.jsonl"
)

// CellResult is one grid cell's outcome. Every field is plain data with a
// fixed marshaling order and replay.OptFloat for the possibly-absent
// metrics (NaN marshals as null), so a result round-trips bit-identically
// through the stage checkpoint and the summary — the property the resume
// guarantee rests on. It deliberately carries no timestamps.
type CellResult struct {
	ID        string `json:"id"`
	Band      string `json:"band"`
	Spec      string `json:"spec"`
	Substrate string `json:"substrate"`
	Device    string `json:"device"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`

	// Status is "ok" or "error"; Error carries the failure text.
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`

	// MeetsSpec reports whether the graded design satisfies every goal of
	// the cell's spec axis (stability strictly positive).
	MeetsSpec bool `json:"meets_spec"`
	// Evals counts band evaluations the cell charged.
	Evals int `json:"evals"`
	// Gamma is the attainment factor for attain cells (<= 0: all goals
	// met); NaN/null for other algorithms.
	Gamma replay.OptFloat `json:"gamma"`
	// FrontSize is the non-dominated set size for nsga2 cells (0 otherwise).
	FrontSize int `json:"front_size,omitempty"`

	// Design is the graded design vector (the E24-snapped optimum for
	// attain cells, the front's representative point for nsga2 cells).
	Design []float64 `json:"design,omitempty"`
	// The graded in-band extremes, stability margin and DC power.
	WorstNFdB  replay.OptFloat `json:"worst_nf_db"`
	MinGTdB    replay.OptFloat `json:"min_gt_db"`
	WorstS11dB replay.OptFloat `json:"worst_s11_db"`
	WorstS22dB replay.OptFloat `json:"worst_s22_db"`
	StabMargin replay.OptFloat `json:"stab_margin"`
	PdcW       replay.OptFloat `json:"pdc_w"`
}

// Summary is the machine-readable campaign outcome: the cells in
// expansion order plus the identity needed to diff or resume against it.
// It contains no timestamps or host details — two runs of the same spec
// (including a killed-and-resumed run) must produce byte-identical files.
type Summary struct {
	Version    int    `json:"version"`
	Name       string `json:"name"`
	SpecDigest string `json:"spec_digest"`
	Quick      bool   `json:"quick,omitempty"`
	BaseSeed   int64  `json:"base_seed"`

	// CellCount == len(Cells); OKCount and MeetsSpecCount summarize it.
	CellCount      int `json:"cell_count"`
	OKCount        int `json:"ok_count"`
	MeetsSpecCount int `json:"meets_spec_count"`

	Cells []CellResult `json:"cells"`
}

// newSummary assembles the summary envelope for a normalized spec.
func newSummary(spec *Spec, cells []CellResult) *Summary {
	s := &Summary{
		Version:    1,
		Name:       spec.Name,
		SpecDigest: spec.Digest(),
		Quick:      spec.Quick,
		BaseSeed:   spec.Seed,
		CellCount:  len(cells),
		Cells:      cells,
	}
	for _, c := range cells {
		if c.Status == "ok" {
			s.OKCount++
		}
		if c.MeetsSpec {
			s.MeetsSpecCount++
		}
	}
	return s
}

// LoadSummary reads a campaign.summary.json.
func LoadSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	s := &Summary{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	return s, nil
}

// MarshalBytes renders the summary in its canonical on-disk form: indented
// JSON with a trailing newline. Encoding/json field order is declaration
// order and map-free, so the bytes are a pure function of the content.
func (s *Summary) MarshalBytes() ([]byte, error) {
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: marshal summary: %w", err)
	}
	return append(raw, '\n'), nil
}

// Write emits campaign.summary.json and RESULTS.md into dir, atomically.
func (s *Summary) Write(dir string) error {
	raw, err := s.MarshalBytes()
	if err != nil {
		return err
	}
	if err := jsonl.WriteFileAtomic(filepath.Join(dir, SummaryFile), raw); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if err := jsonl.WriteFileAtomic(filepath.Join(dir, ResultsFile), []byte(s.ResultsMarkdown())); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// fmtCell renders a metric for the markdown table: "-" when absent.
func fmtCell(v replay.OptFloat) string {
	if v.IsNaN() {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(v))
}

// ResultsMarkdown renders the human-readable campaign report. Like the
// JSON summary it is a pure function of the results (no timestamps), so
// resumed runs regenerate it byte-identically.
func (s *Summary) ResultsMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Campaign %s\n\n", s.Name)
	fmt.Fprintf(&b, "spec digest `%s`", s.SpecDigest)
	if s.Quick {
		b.WriteString(" (quick mode)")
	}
	fmt.Fprintf(&b, " — %d cells, %d ok, %d meet spec\n\n", s.CellCount, s.OKCount, s.MeetsSpecCount)
	b.WriteString("| cell | alg | NFmax [dB] | GTmin [dB] | S11max [dB] | S22max [dB] | stab | Pdc [mW] | gamma | evals | spec |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, c := range s.Cells {
		if c.Status != "ok" {
			fmt.Fprintf(&b, "| %s | %s | error: %s |||||||||\n", c.ID, c.Algorithm, c.Error)
			continue
		}
		meets := "miss"
		if c.MeetsSpec {
			meets = "met"
		}
		pdc := replay.OptFloat(math.NaN())
		if !c.PdcW.IsNaN() {
			pdc = c.PdcW * 1e3
		}
		gamma := fmtCell(c.Gamma)
		if c.Algorithm == "nsga2" {
			gamma = fmt.Sprintf("front %d", c.FrontSize)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s | %s | %s | %s | %d | %s |\n",
			c.ID, c.Algorithm,
			fmtCell(c.WorstNFdB), fmtCell(c.MinGTdB),
			fmtCell(c.WorstS11dB), fmtCell(c.WorstS22dB),
			fmtCell(c.StabMargin), fmtCell(pdc),
			gamma, c.Evals, meets)
	}
	b.WriteString("\nRegenerate with `campaign run`; compare against another run with `obsreport campaign-diff`.\n")
	return b.String()
}
