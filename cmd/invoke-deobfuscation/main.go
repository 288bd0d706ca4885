// Command invoke-deobfuscation deobfuscates obfuscated scripts from
// files or stdin, printing the recovered scripts to stdout.
//
// Usage:
//
//	invoke-deobfuscation [flags] [script.ps1 ...]
//
// With no file argument the script is read from stdin. With several
// file arguments the scripts are deobfuscated concurrently on a worker
// pool (see -jobs) and printed in argument order, each under a
// "===== name =====" header.
//
// The -lang flag selects the language frontend ("powershell",
// "javascript", or an alias like ps1/js); without it each script's
// language is auto-detected.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	invokedeob "github.com/invoke-deobfuscation/invokedeob"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "invoke-deobfuscation:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("invoke-deobfuscation", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		lang        = fs.String("lang", "", "language frontend: powershell, javascript, or an alias (empty = auto-detect per script)")
		showStats   = fs.Bool("stats", false, "print deobfuscation statistics to stderr")
		showLayers  = fs.Bool("layers", false, "print each intermediate layer")
		showTrace   = fs.Bool("trace", false, "print the per-pass pipeline trace (time, self time, bytes, reverts, parse- and eval-cache hits) to stderr")
		noRename    = fs.Bool("no-rename", false, "disable identifier renaming")
		noReformat  = fs.Bool("no-reformat", false, "disable reformatting")
		noTrace     = fs.Bool("no-trace", false, "disable variable tracing (ablation)")
		iterations  = fs.Int("max-iterations", 0, "fixpoint iteration cap (0 = default)")
		iocs        = fs.Bool("iocs", false, "also print extracted IOCs to stderr")
		timeout     = fs.Duration("timeout", 0, "wall-clock deadline for the whole run (0 = none), e.g. 30s")
		maxOutput   = fs.Int("max-output", 0, "total output byte cap across unwrapped layers (0 = 64 MiB default)")
		jobs        = fs.Int("jobs", 0, "worker-pool size for multi-file runs (0 = GOMAXPROCS)")
		noSplice    = fs.Bool("no-splice", false, "disable batched subtree splicing, forcing full reparses (ablation)")
		noEvalCache = fs.Bool("no-eval-cache", false, "disable piece-evaluation memoization (ablation)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := &invokedeob.Options{
		Lang:                   *lang,
		DisableRename:          *noRename,
		DisableReformat:        *noReformat,
		DisableVariableTracing: *noTrace,
		DisableEvalCache:       *noEvalCache,
		MaxIterations:          *iterations,
		MaxOutputBytes:         *maxOutput,
		Jobs:                   *jobs,
		DisableSplice:          *noSplice,
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // materialize the final live set
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	emit := emitOptions{layers: *showLayers, stats: *showStats, trace: *showTrace, iocs: *iocs}
	if len(fs.Args()) > 1 {
		return runBatch(fs.Args(), opts, *timeout, emit, stdout, stderr)
	}
	script, err := readInput(fs.Args(), stdin)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := invokedeob.DeobfuscateContext(ctx, script, opts)
	if err != nil {
		// Envelope violations exit non-zero with the taxonomy name so
		// batch pipelines can triage failures mechanically. When a
		// partial result survived the interruption, emit it first: the
		// partial output is usually the payload of the outermost layers
		// and is exactly what operators are told to accept (README
		// "accept the partial layer"). The non-zero exit still signals
		// the violation.
		if name := invokedeob.ErrorName(err); name != "" {
			if res != nil {
				emitResult(stdout, stderr, res, emit)
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		return err
	}
	emitResult(stdout, stderr, res, emit)
	return nil
}

// runBatch deobfuscates several files concurrently, printing results in
// argument order. Per-script envelope failures are reported per file on
// stderr; the command exits non-zero if any script failed.
func runBatch(files []string, opts *invokedeob.Options, timeout time.Duration, emit emitOptions, stdout, stderr io.Writer) error {
	// Per-script deadline: in batch mode -timeout bounds each script,
	// not the whole batch, so one hostile file cannot eat the budget of
	// the files queued behind it.
	if timeout > 0 {
		opts.ScriptTimeout = timeout
	}
	inputs := make([]invokedeob.BatchInput, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		inputs[i] = invokedeob.BatchInput{Name: f, Script: string(b)}
	}
	results := invokedeob.DeobfuscateBatch(context.Background(), inputs, opts)
	failures := 0
	for _, r := range results {
		fmt.Fprintf(stdout, "===== %s =====\n", r.Name)
		if r.Err != nil {
			failures++
			name := invokedeob.ErrorName(r.Err)
			if name == "" {
				name = "error"
			}
			fmt.Fprintf(stderr, "%s: %s: %v\n", r.Name, name, r.Err)
		}
		if r.Result != nil {
			emitNamed(stdout, stderr, r.Name, r.Result, emit)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d scripts failed", failures, len(results))
	}
	return nil
}

// emitOptions selects the optional outputs.
type emitOptions struct {
	layers bool
	stats  bool
	trace  bool
	iocs   bool
}

// emitResult prints the recovered script (and optional layers, stats,
// trace and IOCs) for both complete runs and partial results after an
// envelope violation.
func emitResult(stdout, stderr io.Writer, res *invokedeob.Result, emit emitOptions) {
	emitNamed(stdout, stderr, "", res, emit)
}

func emitNamed(stdout, stderr io.Writer, name string, res *invokedeob.Result, emit emitOptions) {
	prefix := ""
	if name != "" {
		prefix = name + ": "
	}
	if emit.layers {
		for i, layer := range res.Layers {
			fmt.Fprintf(stdout, "----- layer %d -----\n%s\n", i+1, layer)
		}
		fmt.Fprintln(stdout, "----- final -----")
	}
	fmt.Fprintln(stdout, res.Script)
	if emit.stats {
		s := res.Stats
		fmt.Fprintf(stderr,
			"%stokens=%d pieces=%d/%d vars traced=%d inlined=%d layers=%d renamed=%d iterations=%d time=%s\n",
			prefix, s.TokensNormalized, s.PiecesRecovered, s.PiecesAttempted,
			s.VariablesTraced, s.VariablesInlined, s.LayersUnwrapped,
			s.IdentifiersRenamed, s.Iterations, s.Duration)
		if s.EvalCacheHits+s.EvalCacheMisses+s.EvalCacheSkips > 0 {
			fmt.Fprintf(stderr,
				"%sevalcache: hits=%d misses=%d skips=%d\n",
				prefix, s.EvalCacheHits, s.EvalCacheMisses, s.EvalCacheSkips)
		}
		if s.PiecesTimedOut+s.PiecesPanicked+s.PiecesOverBudget > 0 || s.TimedOut {
			fmt.Fprintf(stderr,
				"%senvelope: timed-out-pieces=%d panicked=%d over-budget=%d run-interrupted=%t\n",
				prefix, s.PiecesTimedOut, s.PiecesPanicked, s.PiecesOverBudget, s.TimedOut)
		}
	}
	if emit.trace {
		for _, p := range res.PassTrace {
			fmt.Fprintf(stderr,
				"%strace pass=%-8s runs=%d time=%s self=%s in=%dB out=%dB reverts=%d cache=%d/%d hits eval=%d/%d hits (%d skipped)\n",
				prefix, p.Pass, p.Runs, p.Duration, p.SelfDuration, p.BytesIn, p.BytesOut,
				p.Reverts, p.CacheHits, p.CacheHits+p.CacheMisses,
				p.EvalHits, p.EvalHits+p.EvalMisses, p.EvalSkips)
		}
	}
	if emit.iocs {
		printIOCs(stderr, invokedeob.ExtractIOCs(res.Script))
	}
}

func readInput(args []string, stdin io.Reader) (string, error) {
	if len(args) == 1 {
		b, err := os.ReadFile(args[0])
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	b, err := io.ReadAll(stdin)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func printIOCs(w io.Writer, iocs *invokedeob.IOCs) {
	section := func(name string, items []string) {
		for _, it := range items {
			fmt.Fprintf(w, "%s\t%s\n", name, it)
		}
	}
	section("url", iocs.URLs)
	section("ip", iocs.IPs)
	section("ps1", iocs.Ps1Files)
	section("powershell", iocs.PowerShellCommands)
}
