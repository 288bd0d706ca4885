package main

import (
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/keyinfo"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// outcome tallies the output checks of a workload: every operation is
// attempted once, fails if it errors or its output does not parse as
// PowerShell, and contributes its ground-truth IOCs to the recall.
type outcome struct {
	attempted, failed  int
	iocFound, iocTotal int
}

// check records one deobfuscation output. truth may be nil (no ground
// truth for this operation).
func (o *outcome) check(out string, failed bool, truth *keyinfo.Info) {
	o.attempted++
	if !failed {
		if _, err := psparser.Parse(out); err != nil {
			failed = true
		}
	}
	if failed {
		o.failed++
	}
	if truth == nil {
		return
	}
	o.iocTotal += len(truth.URLs) + len(truth.IPs) + len(truth.Ps1)
	if failed {
		return
	}
	m := keyinfo.Matches(keyinfo.Extract(out), truth)
	o.iocFound += m[keyinfo.KindURL] + m[keyinfo.KindIP] + m[keyinfo.KindPs1]
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.iocFound += p.iocFound
	o.iocTotal += p.iocTotal
}

func (o *outcome) passRatio() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 1 - float64(o.failed)/float64(o.attempted)
}

func (o *outcome) iocRecall() float64 {
	if o.iocTotal == 0 {
		return 0
	}
	return float64(o.iocFound) / float64(o.iocTotal)
}

// engineTrace sums what core.Result reports about a set of runs: the
// per-pass self times of core.Result.PassTrace, the engine counters,
// and every text a run saw (source plus each Result.Layers entry) for
// the per-layer replay.
type engineTrace struct {
	self     map[string]time.Duration
	reverts  int
	parseHit int64
	parseMis int64
	stats    frontend.Stats
	texts    []seenText
}

// seenText is one text the engine processed, with the operation that
// fed it.
type seenText struct{ op, text string }

func newEngineTrace() *engineTrace {
	return &engineTrace{self: map[string]time.Duration{}}
}

// add folds in one run of operation op on src.
func (t *engineTrace) add(op, src string, res *core.Result) {
	t.texts = append(t.texts, seenText{op, src})
	if res == nil {
		return
	}
	for _, l := range res.Layers {
		t.texts = append(t.texts, seenText{op, l})
	}
	for _, p := range res.PassTrace {
		t.self[p.Pass] += p.SelfDuration
		t.reverts += p.Reverts
		t.parseHit += p.CacheHits
		t.parseMis += p.CacheMisses
	}
	s := res.Stats
	a := &t.stats
	a.PiecesAttempted += s.PiecesAttempted
	a.PiecesRecovered += s.PiecesRecovered
	a.PiecesParallel += s.PiecesParallel
	a.LayersUnwrapped += s.LayersUnwrapped
	a.Iterations += s.Iterations
	a.SplicesApplied += s.SplicesApplied
	a.SpliceFallbacks += s.SpliceFallbacks
	a.EvalCacheHits += s.EvalCacheHits
	a.EvalCacheMisses += s.EvalCacheMisses
	a.EvalCacheSkips += s.EvalCacheSkips
}

// counts are the engine counters that must repeat exactly between two
// traced runs of the same inputs.
func (t *engineTrace) counts() [7]int64 {
	s := t.stats
	return [7]int64{
		int64(s.PiecesAttempted), int64(s.PiecesRecovered),
		int64(s.SplicesApplied), int64(s.SpliceFallbacks),
		s.EvalCacheHits, s.EvalCacheMisses, s.EvalCacheSkips,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// put writes the engine-side per-layer metrics, totals over the traced
// work.
func (t *engineTrace) put(m map[string]float64) {
	s := t.stats
	m["psfront.token.self_ms"] = ms(t.self["token"])
	m["psfront.ast.self_ms"] = ms(t.self["ast"])
	m["psfront.rename.self_ms"] = ms(t.self["rename"])
	m["psfront.reformat.self_ms"] = ms(t.self["reformat"])
	m["psfront.pieces_attempted"] = float64(s.PiecesAttempted)
	m["psfront.pieces_recovered_ratio"] = ratio(float64(s.PiecesRecovered), float64(s.PiecesAttempted))
	m["psfront.pieces_parallel"] = float64(s.PiecesParallel)
	m["psfront.reverts"] = float64(t.reverts)
	m["psfront.layers_unwrapped"] = float64(s.LayersUnwrapped)
	m["psfront.iterations"] = float64(s.Iterations)
	m["pipeline.splices_applied"] = float64(s.SplicesApplied)
	m["pipeline.splice_fallback_ratio"] = ratio(float64(s.SpliceFallbacks), float64(s.SplicesApplied+s.SpliceFallbacks))
	m["pipeline.parse_cache_hit_ratio"] = ratio(float64(t.parseHit), float64(t.parseHit+t.parseMis))
	m["pipeline.eval_cache_hit_ratio"] = ratio(float64(s.EvalCacheHits), float64(s.EvalCacheHits+s.EvalCacheMisses+s.EvalCacheSkips))
	m["psinterp.evals"] = float64(s.EvalCacheMisses + s.EvalCacheSkips)
}

// replayFront calls frontend.Detect, pstoken.Tokenize and
// psparser.Parse on the recorded texts, the inputs each layer actually
// saw, under one span per call, and reports microseconds per KiB.
func replayFront(tr *tracer, texts []seenText, m map[string]float64) {
	kb := 0.0
	for _, s := range texts {
		kb += float64(len(s.text)) / 1024
	}
	layers := []struct {
		name, metric string
		call         func(string)
	}{
		{"frontend.Detect", "frontend.detect_us_per_kb", func(s string) { frontend.Detect(s) }},
		{"pstoken.Tokenize", "pstoken.tokenize_us_per_kb", func(s string) { _, _ = pstoken.Tokenize(s) }},
		{"psparser.Parse", "psparser.parse_us_per_kb", func(s string) { _, _ = psparser.Parse(s) }},
	}
	for _, l := range layers {
		for _, s := range texts {
			id := tr.begin(l.name, s.op, 0)
			l.call(s.text)
			tr.end(id)
		}
		d, _ := tr.total(l.name)
		m[l.metric] = float64(d) / float64(time.Microsecond) / kb
	}
}

// meanMS is the mean duration in milliseconds of the spans called name.
func meanMS(tr *tracer, name string) float64 {
	d, n := tr.total(name)
	return ratio(ms(d), float64(n))
}
