package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bothFrontendInputs collects every pinned input across both
// frontends: the PowerShell equivalence set (testdata shapes plus the
// deterministic corpus) and the JavaScript golden corpus.
func bothFrontendInputs(t *testing.T) map[string]BatchInput {
	t.Helper()
	inputs := make(map[string]BatchInput)
	for name, src := range equivalenceInputs(t) {
		inputs[name] = BatchInput{Name: name, Script: src}
	}
	files, err := filepath.Glob(filepath.Join("..", "jsfront", "testdata", "*.js"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("JS corpus has %d samples, want >= 10", len(files))
	}
	for _, f := range files {
		raw, rerr := os.ReadFile(f)
		if rerr != nil {
			t.Fatal(rerr)
		}
		name := "js_" + strings.TrimSuffix(filepath.Base(f), ".js")
		inputs[name] = BatchInput{Name: name, Script: string(raw), Lang: "javascript"}
	}
	return inputs
}

// TestPieceWorkersEquivalence asserts the engine's output is independent
// of the splice fast path: batched splicing with incremental reparse
// and the full re-render fallback must produce byte-identical scripts
// on every pinned input of both frontends. Splicing is a performance
// feature only and must never change a byte. (The name predates the
// removal of the parallel piece pool, whose worker counts this test
// once compared; it is kept so the test's history stays continuous.)
func TestPieceWorkersEquivalence(t *testing.T) {
	splice := New(Options{})
	noSplice := New(Options{DisableSplice: true})
	for name, in := range bothFrontendInputs(t) {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			want, err := splice.DeobfuscateSharedLang(context.Background(), in.Script, in.Lang, nil, nil)
			if err != nil {
				t.Fatalf("splice: Deobfuscate: %v", err)
			}
			got, err := noSplice.DeobfuscateSharedLang(context.Background(), in.Script, in.Lang, nil, nil)
			if err != nil {
				t.Fatalf("nosplice: Deobfuscate: %v", err)
			}
			if got.Script != want.Script {
				t.Errorf("nosplice output diverged from splice\n--- nosplice ---\n%s\n--- splice ---\n%s",
					got.Script, want.Script)
			}
		})
	}
}

// TestBatchMatchesSingleRun drives a four-job batch over inputs of both
// frontends and asserts per-script outputs match a plain single run.
// Run under -race this also exercises the batch pool's synchronization
// over the shared caches.
func TestBatchMatchesSingleRun(t *testing.T) {
	inputs := make([]BatchInput, 0, 8)
	for name, in := range bothFrontendInputs(t) {
		if strings.HasPrefix(name, "corpus_0") || strings.HasPrefix(name, "js_0") {
			inputs = append(inputs, in)
		}
	}
	if len(inputs) < 6 {
		t.Fatalf("selected %d batch inputs, want >= 6", len(inputs))
	}
	results := New(Options{Jobs: 4}).DeobfuscateBatch(context.Background(), inputs)

	single := New(Options{})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: batch error: %v", inputs[i].Name, r.Err)
		}
		want, err := single.DeobfuscateSharedLang(context.Background(), inputs[i].Script, inputs[i].Lang, nil, nil)
		if err != nil {
			t.Fatalf("%s: single run: %v", inputs[i].Name, err)
		}
		if r.Result.Script != want.Script {
			t.Errorf("%s: batch output diverged from single run", inputs[i].Name)
		}
	}
}
