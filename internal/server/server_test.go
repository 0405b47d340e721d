package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	kbiplex "repro"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	ts, _ := newTestServerPair(t, cfg)
	return ts
}

// newTestServerPair also returns the Server for tests that assert on
// catalog or engine state directly.
func newTestServerPair(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

func loadRandomGraph(t *testing.T, ts *httptest.Server, name string, nl, nr int, density float64, seed int64) {
	t.Helper()
	body := fmt.Sprintf(`{"name":%q,"random":{"num_left":%d,"num_right":%d,"density":%g,"seed":%d}}`,
		name, nl, nr, density, seed)
	resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("loading graph: status %d: %s", resp.StatusCode, buf.String())
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	var got map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &got)
	if resp.StatusCode != http.StatusOK || got["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, got)
	}
}

// TestEnumerateRoundTrip loads a graph over HTTP, streams an enumeration
// and checks the NDJSON against the in-process API on the same seed.
func TestEnumerateRoundTrip(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 12, 12, 2, 3)

	g := kbiplex.RandomBipartite(12, 12, 2, 3)
	want, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/graphs/er/enumerate?k=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var sols []kbiplex.Solution
	var summary summaryLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			solutionLine
			summaryLine
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done || line.Error != "" {
			summary = line.summaryLine
			continue
		}
		sols = append(sols, kbiplex.Solution{L: line.L, R: line.R})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !summary.Done || summary.Error != "" {
		t.Fatalf("stream did not finish cleanly: %+v", summary)
	}
	if len(sols) != len(want) || summary.Solutions != int64(len(want)) {
		t.Fatalf("streamed %d solutions (summary %d), want %d", len(sols), summary.Solutions, len(want))
	}
	for _, s := range sols {
		if !kbiplex.IsMaximalBiplex(g, s.L, s.R, 1) {
			t.Fatalf("streamed non-MBP %v", s)
		}
	}
}

func TestEnumerateParallelWorkers(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 12, 12, 2, 3)
	g := kbiplex.RandomBipartite(12, 12, 2, 3)
	want, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/graphs/er/enumerate?k=1&workers=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	var summary summaryLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line summaryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done || line.Error != "" {
			summary = line
			continue
		}
		n++
	}
	if !summary.Done || n != len(want) {
		t.Fatalf("parallel stream: %d solutions, done=%v, want %d", n, summary.Done, len(want))
	}
}

// streamCount drains one NDJSON enumeration stream, returning the
// solution count and the summary line.
func streamCount(t *testing.T, url string) (int, summaryLine) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	n := 0
	var summary summaryLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line summaryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done || line.Error != "" {
			summary = line
			continue
		}
		n++
	}
	return n, summary
}

// TestEnumerateShardedParam checks ?shards=N routes the legacy stream
// through the sharded runtime with an identical solution set.
func TestEnumerateShardedParam(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 12, 12, 2, 3)
	g := kbiplex.RandomBipartite(12, 12, 2, 3)
	want, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	n, summary := streamCount(t, ts.URL+"/graphs/er/enumerate?k=1&shards=3")
	if !summary.Done || n != len(want) {
		t.Fatalf("sharded stream: %d solutions, done=%v, want %d", n, summary.Done, len(want))
	}
}

// TestDefaultShards checks Config.DefaultShards puts plain iTraversal
// queries on the sharded path while leaving explicit drivers and other
// algorithms alone.
func TestDefaultShards(t *testing.T) {
	ts := newTestServer(t, Config{DefaultShards: 2})
	loadRandomGraph(t, ts, "er", 12, 12, 2, 3)
	g := kbiplex.RandomBipartite(12, 12, 2, 3)
	want, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"k=1", "k=1&workers=2", "k=1&algorithm=btraversal"} {
		n, summary := streamCount(t, ts.URL+"/graphs/er/enumerate?"+query)
		if !summary.Done || n != len(want) {
			t.Fatalf("?%s under default shards: %d solutions, done=%v, want %d", query, n, summary.Done, len(want))
		}
	}
}

func TestEnumerateValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 6, 6, 1, 1)
	for _, url := range []string{
		ts.URL + "/graphs/nope/enumerate?k=1",
		ts.URL + "/graphs/er/enumerate?k=0",
		ts.URL + "/graphs/er/enumerate?k=abc",
		ts.URL + "/graphs/er/enumerate?algorithm=quantum",
		ts.URL + "/graphs/er/enumerate?k=1&workers=2&algorithm=imb",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 4xx", url, resp.StatusCode)
		}
	}
}

func TestLoadValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"random":{"num_left":2,"num_right":2,"density":1}}`, // no name
		`{"name":"x"}`, // no source
		`{"name":"x","edges":[[0,0]],"random":{"num_left":2,"num_right":2,"density":1}}`, // two sources
		`{"name":"x","path":"/etc/passwd"}`,                                              // path loading disabled
		`{"name":"x","edges":[[-1,0]]}`,                                                  // negative id
		`{"name":"x","edges":[[2147483647,0]]}`,                                          // allocation-bomb id
		`{"name":"x","random":{"num_left":20000000,"num_right":20000000,"density":1}}`,   // oversized random
		`{"name":"x","random":{"num_left":100,"num_right":100,"density":1e9}}`,           // edge-count bomb
	} {
		resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusForbidden {
			t.Fatalf("body %s: status %d, want 4xx", body, resp.StatusCode)
		}
	}
}

func TestGraphLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "a", 6, 6, 1, 1)
	loadRandomGraph(t, ts, "b", 6, 6, 1, 2)

	var list []graphInfo
	getJSON(t, ts.URL+"/graphs", &list)
	if len(list) != 2 {
		t.Fatalf("listed %d graphs, want 2", len(list))
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	getJSON(t, ts.URL+"/graphs", &list)
	if len(list) != 1 || list[0].Name != "b" {
		t.Fatalf("after delete: %+v", list)
	}
	if resp := getJSON(t, ts.URL+"/graphs/a", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted graph still served: %d", resp.StatusCode)
	}
}

func TestLargest(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 15, 15, 2.5, 6)
	var got struct {
		Found        bool    `json:"found"`
		L            []int32 `json:"l"`
		R            []int32 `json:"r"`
		BalancedSize int     `json:"balanced_size"`
	}
	resp := getJSON(t, ts.URL+"/graphs/er/largest?k=1", &got)
	if resp.StatusCode != http.StatusOK || !got.Found {
		t.Fatalf("largest: %d %+v", resp.StatusCode, got)
	}
	g := kbiplex.RandomBipartite(15, 15, 2.5, 6)
	want, ok, err := kbiplex.LargestBalancedMBP(g, 1)
	if err != nil || !ok {
		t.Fatalf("reference search: %v %v", ok, err)
	}
	if got.BalancedSize != min(len(want.L), len(want.R)) {
		t.Fatalf("balanced size %d, want %d", got.BalancedSize, min(len(want.L), len(want.R)))
	}
	if !kbiplex.IsMaximalBiplex(g, got.L, got.R, 1) {
		t.Fatal("largest returned a non-maximal biplex")
	}
}

// TestCancelStopsEnumeration is the end-to-end cancellation test: a
// client starts streaming an enumeration that would run far longer than
// the test, cancels the request after a few solutions, and the server's
// underlying enumeration must stop (observed via active_queries). The
// partial run must not be admitted to the result cache.
func TestCancelStopsEnumeration(t *testing.T) {
	ts, srv := newTestServerPair(t, Config{})
	// Large and dense enough that a full k=1 enumeration is effectively
	// unbounded at test scale.
	loadRandomGraph(t, ts, "big", 150, 150, 4, 9)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/graphs/big/enumerate?k=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 3 && sc.Scan(); i++ {
	}
	// The stream is alive and producing; now hang up.
	cancel()

	deadline := time.Now().Add(15 * time.Second)
	for {
		var info struct {
			Active int64 `json:"active_queries"`
		}
		getJSON(t, ts.URL+"/graphs/big", &info)
		if info.Active == 0 {
			break // enumeration goroutine exited: cancellation propagated
		}
		if time.Now().After(deadline) {
			t.Fatalf("enumeration still active %v after client cancel", 15*time.Second)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A cache hit replays a complete solution set, so a cancelled run is
	// never admitted. Close waits for the handler to return, so an
	// admission after the engine stopped would already be counted.
	ts.Close()
	if n := srv.results.Stats().Admitted; n != 0 {
		t.Fatalf("result_cache.admitted = %d after a cancelled stream, want 0", n)
	}
}

// TestQueryTimeoutEndsStream checks the server-side deadline: the NDJSON
// trailer reports the deadline error instead of done.
func TestQueryTimeoutEndsStream(t *testing.T) {
	ts := newTestServer(t, Config{QueryTimeout: 50 * time.Millisecond})
	loadRandomGraph(t, ts, "big", 150, 150, 4, 9)
	resp, err := http.Get(ts.URL + "/graphs/big/enumerate?k=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last summaryLine
	sawSummary := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line summaryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done || line.Error != "" {
			last, sawSummary = line, true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSummary || last.Done || !strings.Contains(last.Error, "deadline") {
		t.Fatalf("want a deadline-error trailer, got %+v (summary seen: %v)", last, sawSummary)
	}
}

// TestMaxResultsCap checks the server-wide result cap reaches the engine.
func TestMaxResultsCap(t *testing.T) {
	ts := newTestServer(t, Config{MaxResults: 4})
	loadRandomGraph(t, ts, "er", 12, 12, 2, 3)
	resp, err := http.Get(ts.URL + "/graphs/er/enumerate?k=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line summaryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			done = true
			continue
		}
		if line.Error == "" {
			n++
		}
	}
	if !done || n != 4 {
		t.Fatalf("capped stream: %d solutions, done=%v, want 4", n, done)
	}
}

func TestStats(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 10, 10, 2, 3)
	resp, err := http.Get(ts.URL + "/graphs/er/enumerate?k=1&max_results=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st struct {
		Queries  int64       `json:"queries"`
		Streamed int64       `json:"solutions_streamed"`
		Graphs   []graphInfo `json:"graphs"`
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Queries != 1 || len(st.Graphs) != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestQueryParamValidation table-tests the hardened parameter parsing:
// negative and overflowing numeric parameters must fail with 400 before
// reaching Options normalization (where, e.g., a negative max_results
// would silently mean "unlimited").
func TestQueryParamValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	loadRandomGraph(t, ts, "er", 6, 6, 1, 1)
	cases := []struct {
		query string
		want  int
	}{
		{"k=-1", http.StatusBadRequest},
		{"k=0", http.StatusBadRequest},
		{"k_left=-3", http.StatusBadRequest},
		{"k_right=0", http.StatusBadRequest},
		{"k=1&min_left=-1", http.StatusBadRequest},
		{"k=1&min_right=-2", http.StatusBadRequest},
		{"k=1&max_results=-5", http.StatusBadRequest},
		{"k=1&max_results=2147483648", http.StatusBadRequest},        // > 2^31-1
		{"k=99999999999999999999", http.StatusBadRequest},            // overflows int64
		{"k=1&min_left=99999999999999999999", http.StatusBadRequest}, // overflows int64
		{"k=3000000000", http.StatusBadRequest},                      // fits int64, > 2^31-1
		{"k=1&max_results=0", http.StatusOK},                         // explicit "unlimited" stays valid
		{"k=1&workers=-1", http.StatusOK},                            // negative workers = all cores
		{"k=1&min_left=2&min_right=2&max_results=3", http.StatusOK},
		{"k=1&shards=-1", http.StatusBadRequest},                     // unlike workers, negative shards is meaningless
		{"k=1&shards=2147483648", http.StatusBadRequest},             // > 2^31-1
		{"k=1&shards=2&workers=2", http.StatusBadRequest},            // one driver at a time
		{"k=1&shards=2&algorithm=btraversal", http.StatusBadRequest}, // sharded runtime is iTraversal-only
		{"k=1&shards=0", http.StatusOK},                              // explicit "sequential" stays valid
		{"k=1&shards=2", http.StatusOK},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + "/graphs/er/enumerate?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("enumerate?%s: status %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}

// TestPersistRestartRoundTrip loads a graph with persist=true, tears the
// server down, and brings a fresh server up over the same data dir: the
// graph must be listed, queryable and identical without re-POSTing.
func TestPersistRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ts, srv := newTestServerPair(t, Config{DataDir: dir})
	body := `{"name":"keep","random":{"num_left":12,"num_right":12,"density":2,"seed":3},"persist":true}`
	resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("persist load: status %d", resp.StatusCode)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	ts2, _ := newTestServerPair(t, Config{DataDir: dir})
	var info struct {
		Persisted bool `json:"persisted"`
		Resident  bool `json:"resident"`
		NumEdges  int  `json:"num_edges"`
	}
	if resp := getJSON(t, ts2.URL+"/graphs/keep", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered graph info: status %d", resp.StatusCode)
	}
	if !info.Persisted || info.Resident {
		t.Fatalf("recovered graph should be persisted and cold, got %+v", info)
	}
	g := kbiplex.RandomBipartite(12, 12, 2, 3)
	if info.NumEdges != g.NumEdges() {
		t.Fatalf("recovered num_edges %d, want %d", info.NumEdges, g.NumEdges())
	}
	want, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := countStreamed(t, ts2.URL+"/graphs/keep/enumerate?k=1")
	if n != len(want) {
		t.Fatalf("recovered enumeration streamed %d solutions, want %d", n, len(want))
	}
}

// countStreamed drains an NDJSON enumeration and returns the solution
// count, failing the test unless the stream ends with done:true.
func countStreamed(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("enumerate: status %d", resp.StatusCode)
	}
	n := 0
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line summaryLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Done {
			done = true
		} else if line.Error != "" {
			t.Fatalf("stream error: %s", line.Error)
		} else {
			n++
		}
	}
	if !done {
		t.Fatal("stream did not end with done:true")
	}
	return n
}

// TestSnapshotUpload posts a binary snapshot body and checks the graph
// serves the same solutions as its in-process source.
func TestSnapshotUpload(t *testing.T) {
	ts := newTestServer(t, Config{})
	g := kbiplex.RandomBipartite(10, 10, 2, 5)
	var buf bytes.Buffer
	if err := kbiplex.WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/graphs?name=snap", SnapshotContentType, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("snapshot upload: status %d", resp.StatusCode)
	}
	want, _, err := kbiplex.EnumerateAll(g, kbiplex.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if n := countStreamed(t, ts.URL+"/graphs/snap/enumerate?k=1"); n != len(want) {
		t.Fatalf("uploaded snapshot streamed %d solutions, want %d", n, len(want))
	}

	// Garbage bytes and a missing name must both 400.
	resp, err = http.Post(ts.URL+"/graphs?name=bad", SnapshotContentType, strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage snapshot: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/graphs", SnapshotContentType, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless snapshot: status %d, want 400", resp.StatusCode)
	}
}

// TestPersistWithoutDataDir: persist=true against a memory-only server
// is a deployment mismatch, reported as 501.
func TestPersistWithoutDataDir(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"name":"x","random":{"num_left":4,"num_right":4,"density":1,"seed":1},"persist":true}`
	resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("persist without data dir: status %d, want 501", resp.StatusCode)
	}
}

// TestDeleteReleasesEngine is the regression test for DELETE leaking
// engine memory: after populating the (α,β)-core cache, deleting the
// graph must drop the cache (CachedCores back to zero).
func TestDeleteReleasesEngine(t *testing.T) {
	ts, srv := newTestServerPair(t, Config{})
	loadRandomGraph(t, ts, "er", 15, 15, 2.5, 6)
	// A thresholded query materializes a core reduction in the cache.
	if n := countStreamed(t, ts.URL+"/graphs/er/enumerate?k=1&min_left=2&min_right=2"); n == 0 {
		t.Fatal("thresholded query found nothing; the cache assertion would be vacuous")
	}
	eng, ok := srv.catalog.EngineIfResident("er")
	if !ok {
		t.Fatal("graph not resident")
	}
	if st := eng.Stats(); st.CachedCores == 0 {
		t.Fatalf("expected a cached core after a thresholded query, got %+v", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/er", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if st := eng.Stats(); st.CachedCores != 0 {
		t.Fatalf("delete left %d cached cores; engine memory not released", st.CachedCores)
	}
}

// TestStatsStoreSection checks /stats carries the catalog counters.
func TestStatsStoreSection(t *testing.T) {
	ts := newTestServer(t, Config{DataDir: t.TempDir()})
	body := `{"name":"p","random":{"num_left":6,"num_right":6,"density":1,"seed":2},"persist":true}`
	resp, err := http.Post(ts.URL+"/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var st struct {
		Store struct {
			Graphs    int   `json:"graphs"`
			Persisted int   `json:"persisted"`
			Resident  int   `json:"resident"`
			Hits      int64 `json:"hits"`
		} `json:"store"`
	}
	getJSON(t, ts.URL+"/stats", &st)
	if st.Store.Graphs != 1 || st.Store.Persisted != 1 || st.Store.Resident != 1 {
		t.Fatalf("store stats: %+v", st.Store)
	}
}
