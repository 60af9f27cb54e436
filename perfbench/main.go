// Command perfbench is the repository benchmark: it runs one named workload
// from a workload seed in a fresh process, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. From the repository root:
//
//	bash perfbench/run.sh --workload design --seed 1 --seconds 30 --trace 0
//
// Each run is its own process, so the process-wide evaluation memo starts
// empty and the only warm state is what the workload builds itself. The
// program is driven only through its public package functions; layer costs
// are timed from outside and counters are read from the hooks the program
// already exposes. Workloads and metrics are described in BENCHMARK.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// maxOps ends the measured window early after that many ops (0: the
	// window alone bounds the run). The self-test uses it with tiny budgets.
	maxOps int
	// tiny shrinks every per-op optimizer budget for the self-test.
	tiny bool
	// workDir holds files a workload writes (the job server's data root);
	// the command uses the ignored build directory of the checkout.
	workDir string
}

var workloads = map[string]func(runConfig) (*report, error){
	"design":      runDesign,
	"extract":     runExtract,
	"serve-mixed": runServeMixed,
}

func main() {
	var cfg runConfig
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: design, extract or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.workDir = ".bench_build"
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload design|extract|serve-mixed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes the workload and writes the report: human-readable lines
// first, the result object as the last line.
func run(w io.Writer, cfg runConfig) error {
	meta := runMetadata(cfg)
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.print(w, cfg, meta)
	return nil
}

// metadata identifies the host and code a result came from, so numbers from
// different hosts or commits are never compared silently.
type metadata struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    string `json:"seconds"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision stamped into the binary, or "unknown" when
	// it was built outside a repository.
	Commit string `json:"commit"`
	// SourceDigest hashes the program's Go sources and module file, so runs
	// of an unversioned checkout still name the code they measured.
	SourceDigest string `json:"source_digest"`
}

func runMetadata(cfg runConfig) metadata {
	m := metadata{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds:    cfg.window.String(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit:       "unknown",
		SourceDigest: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// sourceDigest hashes every .go file and go.mod under root (the checkout
// root the benchmark runs from), skipping hidden directories, in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if len(paths) == 0 {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeJSONLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and finite floats are marshaled
	}
	fmt.Fprintf(w, "%s\n", b)
}
