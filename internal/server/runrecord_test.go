package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"
)

// runRecordScript exercises every pass, including a nested payload
// layer, so each pass reports a non-zero self time.
const runRecordScript = `IEX "IEX ('Wri'+'te-Host run-record')"`

// deobfuscateOnce posts runRecordScript and returns the raw response.
func deobfuscateOnce(t *testing.T, ts *httptest.Server) []byte {
	t.Helper()
	pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(runRecordScript), nil)
	if pr.status != http.StatusOK {
		t.Fatalf("status %d: %s", pr.status, pr.raw)
	}
	return pr.raw
}

// TestStatszSumsSelfDuration: /statsz folds each run's pass trace
// through one sum, so every summed field — SelfDuration included —
// equals the total over the runs the server reported.
func TestStatszSumsSelfDuration(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The expected totals are summed here, independently of the code
	// under test.
	type sums struct {
		runs      int
		dur, self time.Duration
	}
	want := map[string]*sums{}
	var order []string
	for i := 0; i < 2; i++ {
		var rb resultBody
		if err := json.Unmarshal(deobfuscateOnce(t, ts), &rb); err != nil {
			t.Fatal(err)
		}
		if len(rb.PassTrace) == 0 {
			t.Fatal("response carries no pass trace")
		}
		for _, p := range rb.PassTrace {
			w, ok := want[p.Pass]
			if !ok {
				w = &sums{}
				want[p.Pass] = w
				order = append(order, p.Pass)
			}
			w.runs += p.Runs
			w.dur += p.Duration
			w.self += p.SelfDuration
		}
	}

	var sb statszBody
	getJSON(t, ts, "/statsz", &sb)
	if len(sb.PassTrace) != len(order) {
		t.Fatalf("statsz has %d passes, responses %d", len(sb.PassTrace), len(order))
	}
	for i, got := range sb.PassTrace {
		if got.Pass != order[i] {
			t.Fatalf("pass %d = %q, want %q (first-seen order)", i, got.Pass, order[i])
		}
		w := want[got.Pass]
		if got.SelfDuration != w.self {
			t.Errorf("pass %q SelfDuration = %v, want the sum of both runs %v", got.Pass, got.SelfDuration, w.self)
		}
		if got.Duration != w.dur || got.Runs != w.runs {
			t.Errorf("pass %q Duration/Runs = %v/%d, want %v/%d", got.Pass, got.Duration, got.Runs, w.dur, w.runs)
		}
		if got.BytesIn != 0 || got.BytesOut != 0 {
			t.Errorf("pass %q sizes = %d/%d, want zeroed", got.Pass, got.BytesIn, got.BytesOut)
		}
	}
}

// statsKeys and passKeys are the wire keys of one run's Stats and of
// one PassStat. The benchmark harness decodes both bodies back into the
// engine types, so a renamed key would silently zero its metrics.
var (
	statsKeys = []string{
		"Duration", "EvalCacheHits", "EvalCacheMisses", "EvalCacheSkips",
		"IdentifiersRenamed", "Iterations", "LayersUnwrapped",
		"PiecesAttempted", "PiecesOverBudget", "PiecesPanicked",
		"PiecesParallel", "PiecesRecovered", "PiecesTimedOut",
		"SpliceFallbacks", "SplicesApplied", "TimedOut",
		"TokensNormalized", "VariablesInlined", "VariablesTraced",
	}
	passKeys = []string{
		"BytesIn", "BytesOut", "CacheHits", "CacheMisses", "Duration",
		"EvalHits", "EvalMisses", "EvalSkips", "Pass", "Reverts", "Runs",
		"SelfDuration",
	}
)

// parseCacheKeys, evalCacheKeys and their by_lang counterparts are the
// /statsz cache keys after runRecordScript and skipScript on a server
// without a snapshot (warmed and warm_hits are omitted at zero, and so
// is skips, which only the eval cache counts). The benchmark harness
// reads hits, misses, skips and coalesced_waits from both caches.
var (
	parseCacheKeys = []string{
		"by_lang", "bytes", "coalesced_waits", "entries", "evictions",
		"hit_rate", "hits", "misses",
	}
	evalCacheKeys = []string{
		"by_lang", "bytes", "coalesced_waits", "entries", "evictions",
		"hit_rate", "hits", "misses", "skips",
	}
	parseLangKeys = []string{"hit_rate", "hits", "misses"}
	evalLangKeys  = []string{"hit_rate", "hits", "misses", "skips"}
)

// skipScript holds a piece whose evaluation fails (division by zero),
// which the eval cache counts as a skip.
const skipScript = `Write-Host (1/0)`

// keysOf returns the sorted keys of a JSON object.
func keysOf(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %s", raw)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRunRecordWireKeys pins the key sets of stats and pass_trace in
// the /v1/deobfuscate response and in /statsz, and of both caches and
// their by_lang entries in /statsz.
func TestRunRecordWireKeys(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var resp struct {
		Stats     json.RawMessage   `json:"stats"`
		PassTrace []json.RawMessage `json:"pass_trace"`
	}
	if err := json.Unmarshal(deobfuscateOnce(t, ts), &resp); err != nil {
		t.Fatal(err)
	}
	if pr := postJSON(t, ts.Client(), ts.URL+"/v1/deobfuscate", scriptBody(skipScript), nil); pr.status != http.StatusOK {
		t.Fatalf("status %d: %s", pr.status, pr.raw)
	}
	type cacheView struct {
		ByLang map[string]json.RawMessage `json:"by_lang"`
	}
	var statsz struct {
		Stats      json.RawMessage   `json:"stats"`
		PassTrace  []json.RawMessage `json:"pass_trace"`
		ParseCache json.RawMessage   `json:"parse_cache"`
		EvalCache  json.RawMessage   `json:"eval_cache"`
	}
	getJSON(t, ts, "/statsz", &statsz)

	for name, raw := range map[string]json.RawMessage{
		"/v1/deobfuscate stats": resp.Stats,
		"/statsz stats":         statsz.Stats,
	} {
		if got := keysOf(t, raw); !reflect.DeepEqual(got, statsKeys) {
			t.Errorf("%s keys = %v, want %v", name, got, statsKeys)
		}
	}
	if len(resp.PassTrace) == 0 || len(statsz.PassTrace) == 0 {
		t.Fatalf("pass traces: response %d entries, statsz %d", len(resp.PassTrace), len(statsz.PassTrace))
	}
	for _, raw := range append(resp.PassTrace, statsz.PassTrace...) {
		if got := keysOf(t, raw); !reflect.DeepEqual(got, passKeys) {
			t.Errorf("pass_trace keys = %v, want %v", got, passKeys)
		}
	}

	for _, c := range []struct {
		name           string
		raw            json.RawMessage
		keys, langKeys []string
	}{
		{"parse_cache", statsz.ParseCache, parseCacheKeys, parseLangKeys},
		{"eval_cache", statsz.EvalCache, evalCacheKeys, evalLangKeys},
	} {
		if got := keysOf(t, c.raw); !reflect.DeepEqual(got, c.keys) {
			t.Errorf("/statsz %s keys = %v, want %v", c.name, got, c.keys)
		}
		var cv cacheView
		if err := json.Unmarshal(c.raw, &cv); err != nil {
			t.Fatal(err)
		}
		lang, ok := cv.ByLang["powershell"]
		if !ok {
			t.Fatalf("/statsz %s by_lang has no powershell entry: %s", c.name, c.raw)
		}
		if got := keysOf(t, lang); !reflect.DeepEqual(got, c.langKeys) {
			t.Errorf("/statsz %s by_lang keys = %v, want %v", c.name, got, c.langKeys)
		}
	}
}
