// Command benchmark is the repository's one benchmark: it builds s3gen
// and s3serve from the checkout, and for each workload generates the
// data, boots the real process topology, replays a fixed query list once
// as POST /search in a closed loop, checks the answers, and prints every
// metric by name with its unit. --trace 1 reports the per-layer metrics instead:
// /metrics deltas and reply classification from the same real run, plus
// in-process probes that record spans around each layer's public
// functions. See README.md.
//
// The driver runs one workload per invocation:
//
//	sh benchmark/run.sh --workload single-cold --seed 1 --seconds 25 --trace 0
//
// By hand, from benchmark/: every workload, repeated, into a file that
// -compare reads:
//
//	go run . -runs 5 -out a.json
//	go run . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// flags are the command line.
type flags struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	runs     int
	out      string
	compare  bool
	smoke    bool
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&f.seed, "seed", 1, "seed of the query lists (the dataset is fixed)")
	flag.IntVar(&f.seconds, "seconds", 0, "cap on the timed window, which replays a fixed list (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&f.trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&f.runs, "runs", 1, "with -workload all: repeat each workload this many times, seeds seed, seed+1, …")
	flag.StringVar(&f.out, "out", "", "with -workload all: write medians, quartiles and environment to this JSON file")
	flag.BoolVar(&f.compare, "compare", false, "compare two -out files: benchmark -compare A.json B.json")
	flag.BoolVar(&f.smoke, "smoke", false, "CI smoke: every workload once at scale 0.5 with 40 requests")
	flag.Parse()
	if err := run(f, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results were printed when some
// operation failed or some answer was wrong.
var errIncorrect = errors.New("run reported failures")

func run(f flags, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if f.compare {
		if len(args) != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if f.seconds <= 0 {
		f.seconds = spec.RunSeconds
	}
	scale := datasetScale
	if f.smoke {
		scale, f.runs = smokeScale, 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e, err := newEnv(ctx, root, scale)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.workDir)

	opts := runOpts{seed: f.seed, seconds: f.seconds, trace: f.trace == 1, quick: f.smoke}
	if w := findWorkload(f.workload); w != nil {
		res, err := e.runWorkload(ctx, w, opts)
		if err != nil {
			return err
		}
		printMetrics(os.Stdout, w.name, res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			return errIncorrect
		}
		return nil
	}
	if f.workload != "all" {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	return e.runSuite(ctx, opts, f.runs, f.out)
}

// findRoot walks up from the working directory to the checkout root, the
// directory that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in this directory or above it")
		}
		dir = parent
	}
}

// newEnv lays out the run's directories under benchmark/out and builds
// s3gen and s3serve from the checkout's sources.
func newEnv(ctx context.Context, root string, scale float64) (*env, error) {
	out := filepath.Join(root, "benchmark", "out")
	build := filepath.Join(out, "build")
	e := &env{
		root:   root,
		binDir: filepath.Join(build, "bin"),
		outDir: out,
		scale:  scale,
	}
	for _, d := range []string{e.binDir, e.outDir, filepath.Join(build, "gocache"), filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if e.workDir, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(filepath.Separator), "./cmd/s3gen", "./cmd/s3serve")
	cmd.Dir = root
	// Keep the go tool's cache and temp files inside the checkout unless
	// the caller (run.sh) already placed them.
	cmd.Env = os.Environ()
	for k, v := range map[string]string{"GOCACHE": filepath.Join(build, "gocache"), "GOTMPDIR": filepath.Join(build, "tmp")} {
		if os.Getenv(k) == "" {
			cmd.Env = append(cmd.Env, k+"="+v)
		}
	}
	if outp, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(e.workDir)
		return nil, fmt.Errorf("go build s3gen s3serve: %v\n%s", err, outp)
	}
	return e, nil
}

// printMetrics writes the human-readable table that precedes the result
// line.
func printMetrics(w io.Writer, workload string, res *runResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: attempted %d, failed %d (fail_ratio %.4g), list replayed in %.2f s\n", workload, res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)), res.window.Seconds())
	if res.firstFailure != "" {
		fmt.Fprintf(w, "  first failure: %s\n", res.firstFailure)
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}
