// Package invokedeob is a Go implementation of Invoke-Deobfuscation,
// the AST-based and semantics-preserving deobfuscator for PowerShell
// scripts (Chai et al., DSN 2022), together with the full toolchain the
// paper's evaluation requires: a PowerShell tokenizer/parser/AST, a
// bounded interpreter, an Invoke-Obfuscation-style obfuscator, an
// obfuscation-technique detector and scorer, IOC extraction, and a
// behavioural sandbox.
//
// The deobfuscator runs three phases:
//
//  1. Token parsing — lexical recovery of ticking, random case,
//     aliases and random whitespace.
//  2. Recovery based on AST — recoverable AST nodes are evaluated
//     under variable tracing and replaced in place; multi-layer
//     Invoke-Expression / powershell -EncodedCommand wrappers are
//     unwrapped to a fixpoint.
//  3. Rename and reformat — statistically random identifiers become
//     var{N}/func{N} and whitespace is normalized.
//
// Quick start:
//
//	res, err := invokedeob.Deobfuscate(script, nil)
//	if err != nil { ... }
//	fmt.Println(res.Script)
package invokedeob

import (
	"context"
	"fmt"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	_ "github.com/invoke-deobfuscation/invokedeob/internal/frontends"
	"github.com/invoke-deobfuscation/invokedeob/internal/keyinfo"
	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/obfuscate"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
	"github.com/invoke-deobfuscation/invokedeob/internal/score"
)

// The run record is defined once, by the engine: these facade types
// are aliases of the internal/core, internal/frontend and
// internal/pipeline types, so the library, the CLI, the HTTP service
// and the benchmark harness all share one vocabulary.

// Options configures deobfuscation. The zero value (or nil) selects the
// paper's defaults: all phases on, ten fixpoint iterations, the
// built-in command blocklist.
type Options = core.Options

// Stats describes the work one deobfuscation performed.
type Stats = core.Stats

// PassStat is the aggregated trace of one pipeline pass across a
// deobfuscation run (a fixpoint pass runs once per iteration; its
// stats accumulate).
type PassStat = pipeline.PassStat

// Result is the outcome of a deobfuscation.
type Result = core.Result

// ErrInvalidSyntax reports that the input does not parse under the
// selected language frontend.
var ErrInvalidSyntax = core.ErrInvalidSyntax

// ErrBadLang reports an unknown Options.Lang / BatchInput.Lang value.
// HTTP embedders map it to 422.
var ErrBadLang = core.ErrBadLang

// Structured error taxonomy for execution-envelope violations. Classify
// failures with errors.Is; ErrorName maps an error back to its taxonomy
// name for logs and CLI output.
var (
	// ErrDeadline reports that the context deadline expired mid-run.
	ErrDeadline = core.ErrDeadline
	// ErrCanceled reports that the context was canceled mid-run.
	ErrCanceled = core.ErrCanceled
	// ErrMemBudget reports that an interpreter memory budget was
	// exhausted.
	ErrMemBudget = core.ErrMemBudget
	// ErrParseDepth reports input nesting beyond the parser's limit.
	ErrParseDepth = core.ErrParseDepth
	// ErrOutputBudget reports that the total unwrapped-layer output
	// exceeded Options.MaxOutputBytes.
	ErrOutputBudget = core.ErrOutputBudget
	// ErrPanic reports an internal panic converted to an error at an
	// isolation barrier.
	ErrPanic = core.ErrPanic
)

// ErrorName returns the taxonomy name of an envelope error
// ("ErrDeadline", "ErrCanceled", "ErrMemBudget", "ErrParseDepth",
// "ErrOutputBudget", "ErrPanic"), or "" for errors outside the
// taxonomy.
func ErrorName(err error) string {
	return limits.Name(err)
}

// Deobfuscate runs the full three-phase pipeline on a script. A nil
// opts selects the defaults. It is a thin wrapper over
// DeobfuscateContext with a background context (no deadline).
func Deobfuscate(script string, opts *Options) (*Result, error) {
	return DeobfuscateContext(context.Background(), script, opts)
}

// DeobfuscateContext runs the pipeline under the execution envelope
// derived from ctx and opts: the deadline and cancelation of ctx are
// honored inside every interpreter run and between phases, each
// recoverable piece is bounded by the step and memory budgets, and the
// total output across unwrapped layers is capped. On an envelope
// violation it returns the partial result (Stats.TimedOut set) together
// with the taxonomy error — both return values are non-nil.
func DeobfuscateContext(ctx context.Context, script string, opts *Options) (*Result, error) {
	return engine(opts).DeobfuscateContext(ctx, script)
}

// engine builds the engine driver for opts; nil selects the defaults.
func engine(opts *Options) *core.Deobfuscator {
	if opts == nil {
		return core.New(Options{})
	}
	return core.New(*opts)
}

// BatchInput is one script submitted to DeobfuscateBatch.
type BatchInput = core.BatchInput

// BatchResult is the outcome of one script in a batch run.
type BatchResult = core.BatchResult

// DeobfuscateBatch deobfuscates many scripts concurrently on a bounded
// worker pool (opts.Jobs workers, default GOMAXPROCS). Each script runs
// under its own execution envelope — plus its own deadline when
// opts.ScriptTimeout is set — so one hostile input cannot starve the
// rest, while all workers share one bounded parse cache so identical
// layers across scripts parse once. Results are returned in input
// order. Canceling ctx stops the pool promptly; unstarted scripts
// report ErrCanceled.
func DeobfuscateBatch(ctx context.Context, inputs []BatchInput, opts *Options) []BatchResult {
	return engine(opts).DeobfuscateBatch(ctx, inputs)
}

// ValidSyntax reports whether the script parses as PowerShell. The
// check goes through a process-wide bounded parse cache, so repeated
// validation of the same scripts (corpus preprocessing, dataset
// funnels) parses once.
func ValidSyntax(script string) bool {
	ok, err := ValidSyntaxLang(script, "powershell")
	return err == nil && ok
}

// ValidSyntaxLang is ValidSyntax for any registered language. Unknown
// language names fail with ErrBadLang.
func ValidSyntaxLang(script, lang string) (bool, error) {
	fe, err := frontend.Get(lang)
	if err != nil {
		return false, err
	}
	return pipeline.DefaultCache().Valid(fe, script), nil
}

// Languages lists the registered language frontends (canonical names,
// sorted) — the valid values for Options.Lang.
func Languages() []string {
	return frontend.Names()
}

// DetectLanguage guesses a script's language with cheap lexical
// heuristics, returning a canonical frontend name. It never fails:
// with no discriminating signal it returns "powershell".
func DetectLanguage(script string) string {
	return frontend.Detect(script)
}

// Detection reports one identified obfuscation technique.
type Detection struct {
	// Technique is the technique name (Table II rows, e.g. "ticking").
	Technique string
	// Level is the paper's obfuscation level (1, 2 or 3).
	Level int
	// Count is the number of occurrences observed.
	Count int
}

// AnalyzeObfuscation detects known obfuscation techniques (paper
// §IV-B2). The returned detections are sorted by level then name.
func AnalyzeObfuscation(script string) []Detection {
	rep := score.Analyze(script)
	out := make([]Detection, 0, len(rep.Detections))
	for _, d := range rep.Detections {
		out = append(out, Detection{Technique: d.Technique, Level: d.Level, Count: d.Count})
	}
	return out
}

// ObfuscationScore quantifies a script's obfuscation: the sum of levels
// over distinct detected techniques.
func ObfuscationScore(script string) int {
	return score.Score(script)
}

// Obfuscate applies one obfuscation technique (see Techniques) with a
// deterministic seed. It fails rather than emit invalid syntax.
func Obfuscate(script, technique string, seed int64) (string, error) {
	o := obfuscate.New(seed)
	out, err := o.Apply(script, obfuscate.Technique(technique))
	if err != nil {
		return "", fmt.Errorf("invokedeob: %w", err)
	}
	return out, nil
}

// ObfuscateStack applies several techniques in order, skipping any that
// do not apply to the script, and returns the result with the applied
// technique names.
func ObfuscateStack(script string, techniques []string, seed int64) (string, []string, error) {
	ts := make([]obfuscate.Technique, len(techniques))
	for i, t := range techniques {
		ts[i] = obfuscate.Technique(t)
	}
	out, applied, err := obfuscate.New(seed).ApplyStack(script, ts)
	if err != nil {
		return "", nil, fmt.Errorf("invokedeob: %w", err)
	}
	names := make([]string, len(applied))
	for i, t := range applied {
		names[i] = string(t)
	}
	return out, names, nil
}

// Techniques lists the implemented obfuscation techniques in Table II
// order.
func Techniques() []string {
	all := obfuscate.All()
	out := make([]string, len(all))
	for i, t := range all {
		out[i] = string(t)
	}
	return out
}

// TechniqueLevel returns the paper's level (1, 2 or 3) for a technique
// name, or 0 if unknown.
func TechniqueLevel(technique string) int {
	for _, t := range obfuscate.All() {
		if string(t) == technique {
			return obfuscate.Level(t)
		}
	}
	return 0
}

// ObfuscateProfile draws one technique stack from a named obfuscation
// profile ("safe", "light", "balanced", "heavy" or "paranoid") at the
// given wrapper depth and applies it. It returns the obfuscated script
// and the names of the techniques that took effect; the result is
// deterministic for a given (profile, seed, depth).
func ObfuscateProfile(script, profile string, depth int, seed int64) (string, []string, error) {
	p, ok := obfuscate.GetProfile(profile)
	if !ok {
		return "", nil, fmt.Errorf("invokedeob: unknown profile %q (have %v)", profile, obfuscate.ProfileNames())
	}
	out, applied, _, err := obfuscate.New(seed).ApplyProfile(script, p, depth)
	if err != nil {
		return "", nil, fmt.Errorf("invokedeob: %w", err)
	}
	names := make([]string, len(applied))
	for i, t := range applied {
		names[i] = string(t)
	}
	return out, names, nil
}

// ObfuscationProfile describes one built-in obfuscation profile.
type ObfuscationProfile struct {
	Name        string
	Description string
	MaxDepth    int
}

// ObfuscationProfiles lists the built-in profiles in aggressiveness
// order.
func ObfuscationProfiles() []ObfuscationProfile {
	ps := obfuscate.Profiles()
	out := make([]ObfuscationProfile, len(ps))
	for i, p := range ps {
		out[i] = ObfuscationProfile{Name: p.Name, Description: p.Description, MaxDepth: p.MaxDepth}
	}
	return out
}

// IOCs is the key information extracted from a script (paper Fig. 5).
type IOCs struct {
	Ps1Files           []string
	PowerShellCommands []string
	URLs               []string
	IPs                []string
}

// Count returns the total number of extracted items.
func (i *IOCs) Count() int {
	return len(i.Ps1Files) + len(i.PowerShellCommands) + len(i.URLs) + len(i.IPs)
}

// ExtractIOCs pulls the paper's four kinds of key information out of a
// script: .ps1 paths, powershell command lines, URLs and IPs.
func ExtractIOCs(script string) *IOCs {
	info := keyinfo.Extract(script)
	return &IOCs{
		Ps1Files:           info.Ps1,
		PowerShellCommands: info.PowerShell,
		URLs:               info.URLs,
		IPs:                info.IPs,
	}
}

// Event is one behaviour recorded by the sandbox.
type Event struct {
	// Kind is the behaviour class: dns-query, tcp-connect, http-get,
	// download-file, process-start, file-write, file-delete, sleep.
	Kind string
	// Detail is the behaviour target.
	Detail string
}

// SandboxReport is the outcome of executing a script in the bounded
// behavioural sandbox.
type SandboxReport struct {
	// Events are the recorded behaviours in order.
	Events []Event
	// Console is the captured Write-Host output.
	Console string
	// Err records an interpretation failure, if any (behaviour before
	// the failure is still reported).
	Err error
}

// NetworkEvents returns the deduplicated DNS/TCP event set, the basis
// of the paper's behavioural-consistency comparison.
func (r *SandboxReport) NetworkEvents() []string {
	b := make(sandbox.Behavior, len(r.Events))
	for i, e := range r.Events {
		b[i] = sandbox.Event{Kind: sandbox.EventKind(e.Kind), Detail: e.Detail}
	}
	return b.NetworkSet()
}

// RunSandbox executes a script with simulated side effects and records
// its behaviour.
func RunSandbox(script string) *SandboxReport {
	return RunSandboxContext(context.Background(), script)
}

// RunSandboxContext executes a script in the sandbox under ctx; the
// interpreter stops with a taxonomy error (reported in SandboxReport.Err)
// when the deadline expires or the context is canceled. Behaviour
// recorded before the cutoff is still reported.
func RunSandboxContext(ctx context.Context, script string) *SandboxReport {
	res := sandbox.RunContext(ctx, script, sandbox.Options{})
	rep := &SandboxReport{Console: res.Console, Err: res.Err}
	for _, e := range res.Behavior {
		rep.Events = append(rep.Events, Event{Kind: string(e.Kind), Detail: e.Detail})
	}
	return rep
}

// BehaviorConsistent reports whether two scripts produce identical
// network behaviour in the sandbox — the paper's semantic-consistency
// proxy (Table IV).
func BehaviorConsistent(scriptA, scriptB string) bool {
	a := sandbox.Run(scriptA, sandbox.Options{})
	b := sandbox.Run(scriptB, sandbox.Options{})
	return sandbox.Consistent(a.Behavior, b.Behavior)
}
