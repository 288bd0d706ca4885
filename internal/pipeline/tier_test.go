package pipeline

// Tests for the coalescing, warm-restart cache tier: whole-cache bounds,
// LRU recency, singleflight exactly-once and poison-safety,
// eval-flight coalescing (including the canceled-leader retry rule),
// snapshot encode/decode round trips, and corruption handling.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(3, 0)
	l := newFakeLang()
	for _, s := range []string{"a", "b", "c"} {
		if _, err := c.Parse(l, s); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a": under LRU it survives the next eviction; under the old
	// FIFO it would have been the first victim.
	if _, err := c.Parse(l, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Parse(l, "d"); err != nil { // evicts "b"
		t.Fatal(err)
	}
	parsesBefore := l.parses.Load()
	if _, err := c.Parse(l, "a"); err != nil {
		t.Fatal(err)
	}
	if l.parses.Load() != parsesBefore {
		t.Error("recently-used entry was evicted (FIFO behavior); want LRU")
	}
	if _, err := c.Parse(l, "b"); err != nil {
		t.Fatal(err)
	}
	if l.parses.Load() != parsesBefore+1 {
		t.Error("least-recently-used entry was not the eviction victim")
	}
}

// TestCacheGlobalBound: the entry bound holds across the whole cache.
// Filling it to exactly DefaultMaxEntries evicts nothing; one more text
// evicts exactly one entry, the least recently used.
func TestCacheGlobalBound(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	text := func(i int) string { return fmt.Sprintf("text-%05d", i) }
	parse := func(i int) {
		t.Helper()
		if _, err := c.Parse(l, text(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < DefaultMaxEntries; i++ {
		parse(i)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != DefaultMaxEntries {
		t.Fatalf("full cache: %d evictions, %d entries; want 0, %d", st.Evictions, st.Entries, DefaultMaxEntries)
	}
	parse(0) // text 1 is now the least recently used
	parse(DefaultMaxEntries)
	if st := c.Stats(); st.Evictions != 1 || st.Entries != DefaultMaxEntries {
		t.Fatalf("one past full: %d evictions, %d entries; want 1, %d", st.Evictions, st.Entries, DefaultMaxEntries)
	}
	before := l.parses.Load()
	parse(0)
	if l.parses.Load() != before {
		t.Error("recently used text 0 was evicted")
	}
	parse(1)
	if l.parses.Load() != before+1 {
		t.Error("least recently used text 1 was not the eviction victim")
	}
}

// TestEvalCacheGlobalBound is TestCacheGlobalBound for the eval cache
// at DefaultEvalMaxEntries.
func TestEvalCacheGlobalBound(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	noVars := func(string) (string, bool) { return "", false }
	snippet := func(i int) string { return fmt.Sprintf("'snippet-%05d'", i) }
	for i := 0; i < DefaultEvalMaxEntries; i++ {
		v.Insert(snippet(i), nil, []any{"v"})
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != DefaultEvalMaxEntries {
		t.Fatalf("full cache: %d evictions, %d entries; want 0, %d", st.Evictions, st.Entries, DefaultEvalMaxEntries)
	}
	if _, ok := v.Lookup(snippet(0), noVars); !ok { // snippet 1 is now the least recently used
		t.Fatal("snippet 0 missing from a cache filled to its bound")
	}
	v.Insert(snippet(DefaultEvalMaxEntries), nil, []any{"v"})
	if st := c.Stats(); st.Evictions != 1 || st.Entries != DefaultEvalMaxEntries {
		t.Fatalf("one past full: %d evictions, %d entries; want 1, %d", st.Evictions, st.Entries, DefaultEvalMaxEntries)
	}
	if _, ok := v.Lookup(snippet(0), noVars); !ok {
		t.Error("recently used snippet 0 was evicted")
	}
	if _, ok := v.Lookup(snippet(1), noVars); ok {
		t.Error("least recently used snippet 1 was not the eviction victim")
	}
}

// TestSnapshotTextsGlobalLRUOrder: after a known access sequence,
// SnapshotTexts lists every text oldest first in exact LRU order. The
// expected order comes from a list model kept here.
func TestSnapshotTextsGlobalLRUOrder(t *testing.T) {
	const n = 32
	c := NewCache(0, 0)
	l := newFakeLang()
	var model []string // least recently used first
	use := func(s string) {
		t.Helper()
		if _, err := c.Parse(l, s); err != nil {
			t.Fatal(err)
		}
		for i, m := range model {
			if m == s {
				model = append(model[:i], model[i+1:]...)
				break
			}
		}
		model = append(model, s)
	}
	for i := 0; i < n; i++ {
		use(fmt.Sprintf("text-%02d", i))
	}
	for i := n - 1; i >= 0; i -= 3 {
		use(fmt.Sprintf("text-%02d", i))
	}
	for i := 0; i < n; i += 5 {
		use(fmt.Sprintf("text-%02d", i))
	}
	got := c.SnapshotTexts()
	if len(got) != len(model) {
		t.Fatalf("SnapshotTexts has %d entries, want %d", len(got), len(model))
	}
	for i, e := range got {
		if e.Lang != "fake" || e.Text != model[i] {
			t.Fatalf("SnapshotTexts[%d] = %+v, want %q (full order %v)", i, e, model[i], model)
		}
	}
}

// slowLang blocks inside Parse until released, and counts entries so
// the coalescing tests can assert exactly-once computation.
type slowLang struct {
	name    string
	gate    chan struct{} // Parse blocks receiving from gate (nil = no block)
	parses  atomic.Int64
	panicIn atomic.Int64 // panic while > 0, decrementing per call
}

func (l *slowLang) Name() string                     { return l.name }
func (l *slowLang) Tokenize(src string) (any, error) { return src, nil }
func (l *slowLang) Parse(src string) (any, error) {
	l.parses.Add(1)
	if l.panicIn.Load() > 0 {
		l.panicIn.Add(-1)
		panic("slowLang: injected parser panic")
	}
	if l.gate != nil {
		<-l.gate
	}
	return "ast:" + src, nil
}

// TestCacheHotKeyCoalescedExactlyOnce hammers one hot key from many
// goroutines while a churn stream floods distinct keys, asserting the
// hot key is parsed exactly once per generation and memory stays
// bounded. Run under -race this is also the data-race gate for the
// cache/slot protocol.
func TestCacheHotKeyCoalescedExactlyOnce(t *testing.T) {
	const (
		workers    = 16
		churnKeys  = 512
		maxEntries = 128
	)
	c := NewCache(maxEntries, 0)
	hot := &slowLang{name: "hot", gate: make(chan struct{})}
	churn := newFakeLang()

	var wg sync.WaitGroup
	hotResults := make([]any, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ast, err := c.Parse(hot, "the-one-hot-key")
			if err != nil {
				t.Errorf("hot parse: %v", err)
			}
			hotResults[w] = ast
		}(w)
	}
	// Every hot requester joins the one in-flight computation before
	// the churn starts. A requester arriving after the churn evicted the
	// hot entry would rightly start a new generation (a new entry, a
	// second parse); this test pins the requesters already holding it.
	deadline := time.Now().Add(10 * time.Second)
	for hot.parses.Load() != 1 || c.Stats().CoalescedWaits != workers-1 {
		if time.Now().After(deadline) {
			close(hot.gate)
			t.Fatalf("hot requesters never joined one flight: %d parses, %d coalesced waits",
				hot.parses.Load(), c.Stats().CoalescedWaits)
		}
		runtime.Gosched()
	}
	// Churn concurrently with the blocked hot-key computation: evictions
	// in other entries must not disturb the in-flight singleflight.
	var churnWG sync.WaitGroup
	for w := 0; w < 4; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for i := 0; i < churnKeys; i++ {
				if _, err := c.Parse(churn, fmt.Sprintf("churn-%d-%d", w, i)); err != nil {
					t.Errorf("churn parse: %v", err)
				}
			}
		}(w)
	}
	churnWG.Wait()
	close(hot.gate) // release the hot-key leader
	wg.Wait()

	if n := hot.parses.Load(); n != 1 {
		t.Errorf("hot key parsed %d times across %d concurrent requests, want exactly 1", n, workers)
	}
	for _, ast := range hotResults {
		if ast != "ast:the-one-hot-key" {
			t.Errorf("hot result = %v, want shared artifact", ast)
		}
	}
	st := c.Stats()
	if st.Entries > maxEntries {
		t.Errorf("entries = %d after churn, want <= %d", st.Entries, maxEntries)
	}
	if st.CoalescedWaits == 0 {
		t.Error("no coalesced waits recorded despite concurrent requests on a blocked key")
	}
}

// TestCacheLeaderPanicDoesNotPoison injects a parser panic into the
// singleflight leader and asserts (a) the panic propagates to the
// leader alone and (b) the slot resets so a later request recomputes
// instead of inheriting a poisoned artifact.
func TestCacheLeaderPanicDoesNotPoison(t *testing.T) {
	c := NewCache(0, 0)
	l := &slowLang{name: "panicky"}
	l.panicIn.Store(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader did not observe its own parser panic")
			}
		}()
		c.Parse(l, "boom")
	}()
	ast, err := c.Parse(l, "boom")
	if err != nil || ast != "ast:boom" {
		t.Fatalf("retry after leader panic: ast=%v err=%v, want recomputed artifact", ast, err)
	}
	if n := l.parses.Load(); n != 2 {
		t.Errorf("parse called %d times, want 2 (panicked once, recomputed once)", n)
	}
}

func TestCachePreloadAndWarmHits(t *testing.T) {
	c := NewCache(0, 0)
	l := newFakeLang()
	if !c.Preload(l, "warm me") {
		t.Fatal("Preload returned false on a fresh entry")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Preload counted traffic: %+v, want 0 hits / 0 misses", st)
	}
	if st.Warmed != 1 {
		t.Errorf("Warmed = %d, want 1", st.Warmed)
	}
	parsesAfterPreload := l.parses.Load()
	if _, err := c.Parse(l, "warm me"); err != nil {
		t.Fatal(err)
	}
	if l.parses.Load() != parsesAfterPreload {
		t.Error("Parse after Preload re-derived the artifact")
	}
	st = c.Stats()
	if st.Hits != 1 || st.WarmHits != 1 {
		t.Errorf("stats after warm hit = %+v, want Hits=1 WarmHits=1", st)
	}
	// Preloading a live entry is a no-op, not a reset.
	if c.Preload(l, "warm me") {
		t.Error("Preload overwrote a live entry")
	}
}

func TestEvalAcquireCoalescesToOneEvaluation(t *testing.T) {
	const workers = 12
	c := NewEvalCache(0, 0)
	ops := testOps()
	noVars := func(string) (string, bool) { return "", false }

	var evaluations atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := c.View(ops)
			out, hit, ticket := v.Acquire(context.Background(), "wave snippet", noVars)
			if hit {
				if len(out) != 1 || out[0] != "result" {
					t.Errorf("coalesced hit = %v, want [result]", out)
				}
				return
			}
			evaluations.Add(1)
			time.Sleep(2 * time.Millisecond) // widen the in-flight window
			ticket.Insert(nil, []any{"result"})
		}()
	}
	wg.Wait()
	if n := evaluations.Load(); n != 1 {
		t.Errorf("%d evaluations for one distinct snippet across %d goroutines, want 1", n, workers)
	}
	st := c.Stats()
	if st.Hits != workers-1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want %d hits / 1 miss", st, workers-1)
	}
	if st.CoalescedWaits == 0 {
		t.Error("no coalesced waits recorded")
	}
}

// TestEvalAcquireSkipPromotesWaiters: when the leader's evaluation is
// uncacheable (Skip), waiters must not inherit that outcome — each
// retries as the next leader.
func TestEvalAcquireSkipPromotesWaiters(t *testing.T) {
	c := NewEvalCache(0, 0)
	ops := testOps()
	noVars := func(string) (string, bool) { return "", false }

	v1 := c.View(ops)
	_, hit, lead := v1.Acquire(context.Background(), "impure", noVars)
	if hit || lead == nil {
		t.Fatal("first Acquire should lead")
	}
	followerDone := make(chan *EvalTicket)
	go func() {
		v2 := c.View(ops)
		_, hit, ticket := v2.Acquire(context.Background(), "impure", noVars)
		if hit {
			t.Error("follower hit after leader skip; skip must not publish a result")
		}
		followerDone <- ticket
	}()
	// Give the follower time to park on the flight, then skip.
	time.Sleep(5 * time.Millisecond)
	lead.Skip()
	ticket := <-followerDone
	if ticket == nil {
		t.Fatal("follower was not promoted to leader after skip")
	}
	ticket.Insert(nil, []any{"second try"})
	out, ok := c.View(ops).Lookup("impure", noVars)
	if !ok || out[0] != "second try" {
		t.Fatalf("promoted leader's insert not visible: %v ok=%t", out, ok)
	}
}

// TestEvalAcquireCanceledWaiterComputesItself is the queued-request
// bugfix: a waiter whose own context is done must stop waiting on the
// (possibly canceled) leader and evaluate under its own envelope —
// never inherit the leader's ErrCanceled.
func TestEvalAcquireCanceledWaiterComputesItself(t *testing.T) {
	c := NewEvalCache(0, 0)
	ops := testOps()
	noVars := func(string) (string, bool) { return "", false }

	v1 := c.View(ops)
	_, _, lead := v1.Acquire(context.Background(), "contested", noVars)
	if lead == nil {
		t.Fatal("first Acquire should lead")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the waiter's admission context is already gone
	v2 := c.View(ops)
	done := make(chan *EvalTicket, 1)
	go func() {
		_, hit, ticket := v2.Acquire(ctx, "contested", noVars)
		if hit {
			t.Error("canceled waiter reported a hit")
		}
		done <- ticket
	}()
	var ticket *EvalTicket
	select {
	case ticket = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter stayed blocked on the leader's flight")
	}
	if ticket == nil {
		t.Fatal("canceled waiter got no ticket; it must be able to compute itself")
	}
	// The waiter evaluates itself; its insert must not tear down the
	// leader's flight, and both resolutions must coexist.
	ticket.Insert(nil, []any{"self-computed"})
	lead.Insert(nil, []any{"leader"})
	if out, ok := c.View(ops).Lookup("contested", noVars); !ok || len(out) != 1 {
		t.Fatalf("lookup after both inserts: %v ok=%t", out, ok)
	}
}

func TestEvalTicketResolutionIdempotent(t *testing.T) {
	c := NewEvalCache(0, 0)
	v := c.View(testOps())
	noVars := func(string) (string, bool) { return "", false }
	_, _, ticket := v.Acquire(context.Background(), "once", noVars)
	ticket.Insert(nil, []any{"x"})
	ticket.Skip()  // must be a no-op
	ticket.Abort() // must be a no-op
	if v.Misses != 1 || v.Skips != 0 {
		t.Errorf("view = %d misses / %d skips after redundant resolutions, want 1 / 0", v.Misses, v.Skips)
	}
	// Nil tickets (disabled views) are safe everywhere.
	var nilTicket *EvalTicket
	nilTicket.Insert(nil, nil)
	nilTicket.Skip()
	nilTicket.Abort()
	if nilTicket.Enabled() {
		t.Error("nil ticket reports enabled")
	}
}

func TestEvalPreloadAndSnapshotSnippets(t *testing.T) {
	c := NewEvalCache(0, 0)
	ops := testOps()
	if !c.PreloadEval(ops, "'warm'", []any{"warm"}) {
		t.Fatal("PreloadEval refused a fresh zero-binding entry")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Warmed != 1 {
		t.Errorf("stats after preload = %+v, want no traffic, Warmed=1", st)
	}
	v := c.View(ops)
	out, ok := v.Lookup("'warm'", func(string) (string, bool) { return "", false })
	if !ok || out[0] != "warm" {
		t.Fatalf("lookup of preloaded entry = %v ok=%t", out, ok)
	}
	if got := c.Stats().WarmHits; got != 1 {
		t.Errorf("WarmHits = %d, want 1", got)
	}
	// Snapshot excludes binding-dependent entries.
	v.Insert("$a", []Binding{{Name: "a", FP: "s:x"}}, []any{"bound"})
	snaps := c.SnapshotSnippets()
	if len(snaps) != 1 || snaps[0].Text != "'warm'" || snaps[0].Lang != "fake" {
		t.Errorf("SnapshotSnippets = %+v, want only the zero-binding entry", snaps)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	data := SnapshotData{
		Parse: []SnapshotEntry{
			{Lang: "powershell", Text: "Write-Host 'hi'"},
			{Lang: "javascript", Text: "console.log(1)"},
			{Lang: "powershell", Text: strings.Repeat("x", 4096)},
		},
		Eval: []SnapshotEntry{
			{Lang: "powershell", Text: "'a'+'b'"},
		},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, data); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parse) != len(data.Parse) || len(got.Eval) != len(data.Eval) {
		t.Fatalf("round trip lost records: %d/%d parse, %d/%d eval",
			len(got.Parse), len(data.Parse), len(got.Eval), len(data.Eval))
	}
	for i := range data.Parse {
		if got.Parse[i] != data.Parse[i] {
			t.Errorf("parse record %d = %+v, want %+v", i, got.Parse[i], data.Parse[i])
		}
	}
	if got.Eval[0] != data.Eval[0] {
		t.Errorf("eval record = %+v, want %+v", got.Eval[0], data.Eval[0])
	}
}

func TestSnapshotEmptyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, SnapshotData{}); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Parse) != 0 || len(got.Eval) != 0 {
		t.Errorf("empty snapshot decoded to %+v", got)
	}
}

// TestSnapshotCorruptionRejected mutilates a valid snapshot every way
// the loader must survive: truncation at each boundary, bad magic, bad
// version, insane counts, flipped payload bytes, trailing garbage. All
// must yield ErrSnapshotCorrupt — the caller then starts cold.
func TestSnapshotCorruptionRejected(t *testing.T) {
	var buf bytes.Buffer
	err := EncodeSnapshot(&buf, SnapshotData{
		Parse: []SnapshotEntry{{Lang: "powershell", Text: "Write-Host 'hi'"}},
		Eval:  []SnapshotEntry{{Lang: "powershell", Text: "'a'+'b'"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(name string, f func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), valid...)
			b = f(b)
			if _, err := DecodeSnapshot(bytes.NewReader(b)); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("corrupt variant decoded without ErrSnapshotCorrupt: %v", err)
			}
		})
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("truncated-magic", func(b []byte) []byte { return b[:4] })
	mutate("truncated-header", func(b []byte) []byte { return b[:10] })
	mutate("truncated-mid-record", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated-checksum", func(b []byte) []byte { return b[:len(b)-2] })
	mutate("bad-magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("bad-version", func(b []byte) []byte { b[8] = 0xEE; return b })
	mutate("insane-count", func(b []byte) []byte {
		b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0xFF
		return b
	})
	mutate("flipped-payload-byte", func(b []byte) []byte { b[len(b)-8] ^= 0x01; return b })
	mutate("trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) })
}
