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
// the /v1/deobfuscate response and in /statsz.
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
	var statsz struct {
		Stats     json.RawMessage   `json:"stats"`
		PassTrace []json.RawMessage `json:"pass_trace"`
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
}
