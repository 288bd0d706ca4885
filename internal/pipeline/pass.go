package pipeline

import (
	"strings"
	"time"
)

// Pass is one composable phase of the deobfuscation pipeline. A Pass
// reads and rewrites the Document in its PassContext; it must leave the
// Document parseable (revert on regression) and report only hard
// failures — "nothing to do" is a successful no-op.
type Pass interface {
	// Name identifies the pass in traces ("token", "ast", "rename",
	// "reformat").
	Name() string
	// Run executes the pass over pc.Doc.
	Run(pc *PassContext) error
}

// PassContext carries the mutable per-run state a pass operates on.
type PassContext struct {
	// Doc is the script being rewritten.
	Doc *Document
	// Reverts counts candidate rewrites that failed validation and were
	// rolled back (the paper's validOrRevert check, §IV-A), across all
	// passes of the run.
	Reverts int
	// Eval is the run's window onto the shared evaluation cache (nil
	// when evaluation memoization is disabled; EvalView methods accept
	// a nil receiver).
	Eval *EvalView

	// nestedDepth / nestedTime track wall-clock time spent inside nested
	// payload layers re-entered from within a pass (see BeginNested), so
	// Runner.Run can split a pass's cumulative duration into self time
	// vs nested-layer time instead of double-attributing the nested work.
	nestedDepth int
	nestedTime  time.Duration
}

// BeginNested marks entry into a nested payload layer whose pass work
// executes inside the currently running pass (the ast phase re-enters
// the token and ast phases for every unwrapped layer). It returns the
// matching end function, to be called — typically deferred — when the
// nested layer finishes. Only the outermost nesting level accrues time,
// so recursive layers are counted once, and Runner.Run subtracts the
// accrued time from the enclosing pass's SelfDuration while leaving its
// cumulative Duration intact.
func (pc *PassContext) BeginNested() func() {
	pc.nestedDepth++
	start := time.Now()
	return func() {
		pc.nestedDepth--
		if pc.nestedDepth == 0 {
			pc.nestedTime += time.Since(start)
		}
	}
}

// ValidOrRevert returns candidate when it parses under view's
// language, fallback otherwise (the paper's per-step syntax check,
// §IV-A). The validity parse goes through the run's cache — a
// candidate checked here and then kept is never re-parsed by the next
// pass — and reverts are counted into the pass trace.
func (pc *PassContext) ValidOrRevert(view *View, candidate, fallback string) string {
	if strings.TrimSpace(candidate) == "" {
		pc.Reverts++
		return fallback
	}
	if !view.Valid(candidate) {
		pc.Reverts++
		return fallback
	}
	return candidate
}

// passFunc adapts a function to the Pass interface.
type passFunc struct {
	name string
	fn   func(*PassContext) error
}

func (p passFunc) Name() string              { return p.name }
func (p passFunc) Run(pc *PassContext) error { return p.fn(pc) }

// NewPass wraps fn as a named Pass.
func NewPass(name string, fn func(*PassContext) error) Pass {
	return passFunc{name: name, fn: fn}
}

// PassStat is the aggregated trace of one pass across all its runs in
// a deobfuscation (a pass in the fixpoint loop runs once per
// iteration; its stats accumulate).
type PassStat struct {
	// Pass is the pass name.
	Pass string
	// Runs is how many times the pass executed.
	Runs int
	// Duration is total wall-clock time spent inside the pass,
	// including nested payload layers unwrapped from within it
	// (cumulative time).
	Duration time.Duration
	// SelfDuration is Duration minus the time spent inside nested
	// payload layers re-entered from within the pass (the layers'
	// token/ast work runs under the enclosing ast pass). Summing
	// SelfDuration across passes approximates the run's wall clock;
	// summing Duration double-counts every unwrapped layer.
	SelfDuration time.Duration
	// BytesIn is the document size when the pass first ran.
	BytesIn int
	// BytesOut is the document size after the pass's latest run.
	BytesOut int
	// Reverts counts candidate rewrites rolled back inside this pass.
	Reverts int
	// CacheHits / CacheMisses are this pass's parse-cache requests
	// (per-run view accounting: exact even when batch workers share a
	// cache).
	CacheHits   int64
	CacheMisses int64
	// EvalHits / EvalMisses / EvalSkips are this pass's evaluation-cache
	// outcomes: hits replayed a memoized pure result, misses evaluated
	// and cached, skips evaluated but were uncacheable (impure piece,
	// failed run, or uncopyable values).
	EvalHits   int64
	EvalMisses int64
	EvalSkips  int64
}

// Add folds another execution (or another run's aggregate) of the same
// pass into s: runs, durations, reverts and cache outcomes sum, and
// BytesOut takes o's value. Pass and BytesIn are left as they are —
// they name the pass and size its first run. It is the one place pass
// records are aggregated (Runner.Run, the HTTP service's /statsz).
func (s *PassStat) Add(o PassStat) {
	s.Runs += o.Runs
	s.Duration += o.Duration
	s.SelfDuration += o.SelfDuration
	s.BytesOut = o.BytesOut
	s.Reverts += o.Reverts
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.EvalHits += o.EvalHits
	s.EvalMisses += o.EvalMisses
	s.EvalSkips += o.EvalSkips
}

// Runner executes passes over a PassContext and traces each execution
// into one PassStat per pass, in first-run order. The zero value is
// ready to use; a Runner is confined to one run (one goroutine).
type Runner struct {
	stats []PassStat
}

// Stats returns the accumulated per-pass statistics in first-run order.
func (r *Runner) Stats() []PassStat {
	return append([]PassStat(nil), r.stats...)
}

// stat returns the trace entry for pass, creating it (sized bytesIn)
// on the pass's first run. A run has a handful of passes, so a linear
// scan beats a map.
func (r *Runner) stat(pass string, bytesIn int) *PassStat {
	for i := range r.stats {
		if r.stats[i].Pass == pass {
			return &r.stats[i]
		}
	}
	r.stats = append(r.stats, PassStat{Pass: pass, BytesIn: bytesIn})
	return &r.stats[len(r.stats)-1]
}

// Run executes one pass and records its trace entry. The pass's error
// is returned unwrapped.
func (r *Runner) Run(p Pass, pc *PassContext) error {
	view := pc.Doc.View()
	hits0, misses0 := view.Hits, view.Misses
	var eh0, em0, es0 int64
	if pc.Eval != nil {
		eh0, em0, es0 = pc.Eval.Hits, pc.Eval.Misses, pc.Eval.Skips
	}
	reverts0 := pc.Reverts
	bytesIn := pc.Doc.Len()
	nested0 := pc.nestedTime
	start := time.Now()
	err := p.Run(pc)
	total := time.Since(start)
	d := PassStat{
		Runs:        1,
		Duration:    total,
		BytesOut:    pc.Doc.Len(),
		Reverts:     pc.Reverts - reverts0,
		CacheHits:   view.Hits - hits0,
		CacheMisses: view.Misses - misses0,
	}
	if pc.Eval != nil {
		d.EvalHits = pc.Eval.Hits - eh0
		d.EvalMisses = pc.Eval.Misses - em0
		d.EvalSkips = pc.Eval.Skips - es0
	}
	// Self time excludes the nested payload layers processed inside this
	// execution; their own pass work would otherwise be attributed twice.
	d.SelfDuration = max(total-(pc.nestedTime-nested0), 0)
	r.stat(p.Name(), bytesIn).Add(d)
	return err
}
