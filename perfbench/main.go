// Command perfbench is the repository's benchmark. It runs one of three
// workloads on inputs generated from --seed, checks every output, and
// prints a JSON result as its last line of standard output:
//
//	perfbench --workload corpus|gauntlet|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics of a timed
// run; with --trace 1 it holds per-layer metrics from a separate traced
// run. run.sh builds this program and the deobserver binary from the
// checkout and runs it; README.md explains the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	_ "github.com/invoke-deobfuscation/invokedeob/internal/frontends"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run, reported by every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"pass_ratio", "ratio"},
	{"ioc_recall", "ratio"},
}

// perLayer are the metrics of a --trace 1 run, reported by every
// workload; a layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"frontend.detect_us_per_kb", "us/KiB"},
	{"pstoken.tokenize_us_per_kb", "us/KiB"},
	{"psparser.parse_us_per_kb", "us/KiB"},
	{"psparser.parse_calls", "count"},
	{"psparser.guard_parse_calls", "count"},
	{"psfront.token.self_ms", "ms"},
	{"psfront.ast.self_ms", "ms"},
	{"psfront.rename.self_ms", "ms"},
	{"psfront.reformat.self_ms", "ms"},
	{"psfront.pieces_attempted", "count"},
	{"psfront.pieces_recovered_ratio", "ratio"},
	{"psfront.pieces_parallel", "count"},
	{"psfront.reverts", "count"},
	{"psfront.layers_unwrapped", "count"},
	{"psfront.iterations", "count"},
	{"pipeline.splices_applied", "count"},
	{"pipeline.splice_fallback_ratio", "ratio"},
	{"pipeline.parse_cache_hit_ratio", "ratio"},
	{"pipeline.eval_cache_hit_ratio", "ratio"},
	{"psinterp.evals", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"obfuscate.apply_ms", "ms"},
	{"score.score_ms", "ms"},
	{"sandbox.run_ms", "ms"},
	{"core.deobfuscate_ms", "ms"},
	{"server.engine_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.coalesced_waits", "count"},
	{"server.rejected", "count"},
	{"generator.late_ms", "ms"},
	{"bench.trace_overhead_s", "s"},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 7

// config is the parsed command line.
type config struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	root       string
	deobserver string
	// steal0 and ticks0 are the host's steal and total CPU ticks at
	// start, for the run record's steal share.
	steal0, ticks0 int64
}

// report is what a workload hands back: the metric values, the output
// tally, the digest of its outputs, and the input sizes for the run
// record.
type report struct {
	metrics    map[string]float64
	out        outcome
	digest     string
	inputs     int
	inputBytes int
	problems   []string
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*report, error){
	"corpus":   runCorpus,
	"gauntlet": runGauntlet,
	"serve":    runServe,
}

func main() {
	var cfg config
	var trace int
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&cfg.workload, "workload", "", "corpus, gauntlet or serve")
	fl.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	fl.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fl.StringVar(&cfg.root, "root", ".", "repository checkout (digest store and source hash)")
	fl.StringVar(&cfg.deobserver, "deobserver", "", "deobserver binary for the serve workload")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.steal0, cfg.ticks0 = hostTicks()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload corpus|gauntlet|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := checkDigest(cfg, rep.digest); err != nil {
		rep.problem("%v", err)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	printRecord(cfg, rep)
	if !printResult(cfg, rep) {
		os.Exit(1)
	}
}

// printRecord prints the run record: the host and build facts that make
// a number comparable, the inputs it was measured on, and the share of
// host CPU stolen by other guests while it ran.
func printRecord(cfg config, rep *report) {
	rec := map[string]any{
		"workload":    cfg.workload,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"commit":      commit(cfg.root),
		"source":      sourceDigest(cfg.root),
		"inputs":      rep.inputs,
		"input_bytes": rep.inputBytes,
		"digest":      rep.digest,
		"attempted":   rep.out.attempted,
		"failed":      rep.out.failed,
		"steal_share": stealShare(cfg.steal0, cfg.ticks0),
	}
	b, _ := json.Marshal(map[string]any{"run": rec})
	fmt.Println(string(b))
}

// printResult prints the final result line and reports whether every
// check passed.
func printResult(cfg config, rep *report) bool {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			rep.problem("metric %s not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	correct := len(rep.problems) == 0 && rep.out.failed == 0 && rep.out.attempted > 0
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(rep.out.attempted, 1), rep.out.failed, metrics})
	fmt.Println(string(b))
	return correct
}

// checkDigest compares the output digest with the one an earlier run of
// the same source, workload, seed and length stored, and stores it when
// there is none. Two runs of one program on one input must agree.
func checkDigest(cfg config, dg string) error {
	dir := filepath.Join(cfg.root, ".bench_build", "perfbench", "digests")
	name := fmt.Sprintf("%s-%d-%g-%s", cfg.workload, cfg.seed, cfg.seconds, sourceDigest(cfg.root))
	path := filepath.Join(dir, name)
	prev, err := os.ReadFile(path)
	if err == nil {
		if string(prev) != dg {
			return fmt.Errorf("output digest %s differs from %s of an earlier run of the same code and inputs", dg, prev)
		}
		return nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(dg), 0o644)
}

// commit is the checked-out commit when the checkout is a git work
// tree, else "unknown" (the source digest still identifies the code).
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

var srcDigest string

// sourceDigest hashes every Go source and go.mod of the checkout, so a
// result names the code it measured even outside a git work tree.
func sourceDigest(root string) string {
	if srcDigest != "" {
		return srcDigest
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	srcDigest = hex.EncodeToString(h.Sum(nil))[:16]
	return srcDigest
}

// writeSpans saves a traced run's spans under the checkout's build
// directory.
func writeSpans(cfg config, tr *tracer) error {
	name := fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed)
	return tr.write(filepath.Join(cfg.root, ".bench_build", "perfbench", "spans", name))
}

// memCounters snapshots the Go runtime's allocation and GC counters.
type memCounters struct {
	alloc uint64
	gcs   uint32
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{ms.TotalAlloc, ms.NumGC}
}

// putRuntime writes the runtime per-layer metrics for the work between
// two snapshots.
func putRuntime(m map[string]float64, before, after memCounters, ops int) {
	m["runtime.alloc_mb_per_op"] = ratio(float64(after.alloc-before.alloc)/(1<<20), float64(ops))
	m["runtime.gc_cycles"] = float64(after.gcs - before.gcs)
}

// timedSetup runs setup setupRepeats times and returns the median
// duration; each call must build the same inputs, which it checks by
// the digest setup returns. Engine warm-up is not part of setup: it
// runs engine code, whose time the other metrics measure, once after.
func timedSetup(rep *report, setup func() (string, error)) (float64, error) {
	var times []float64
	first := ""
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		dg, err := setup()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			first = dg
		} else if dg != first {
			rep.problem("setup %d built inputs %s, setup 0 built %s", i, dg, first)
		}
	}
	return median(times), nil
}
