package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// postBatch sends one batch request and returns the status, the parsed
// NDJSON items keyed by index (nil on non-200), and the headers.
func postBatch(t *testing.T, url, body string) (int, map[int]BatchItem, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/tile/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, resp.Header
	}
	items := map[int]BatchItem{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var it BatchItem
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, dup := items[it.Index]; dup {
			t.Fatalf("index %d answered twice", it.Index)
		}
		items[it.Index] = it
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read batch stream: %v", err)
	}
	return resp.StatusCode, items, resp.Header
}

// TestBatchStreamsPerItemResults: a batch mixing a result-cache hit, a
// fresh search and an invalid item answers every index, and each result
// is byte-identical to what POST /v1/tile returns for the same request.
func TestBatchStreamsPerItemResults(t *testing.T) {
	_, ts, _ := testServer(t, Config{})

	// Prime the result cache with the single-request endpoint.
	st, single, _ := post(t, ts.URL, fastRequest)
	if st != http.StatusOK {
		t.Fatalf("prime: status %d body %s", st, single)
	}

	other := `{"kernel":"MM","size":48,"cache":"8k","seed":8,"maxEvaluations":40,"timeoutMs":30000}`
	st, items, hdr := postBatch(t, ts.URL,
		`{"requests":[`+fastRequest+`,`+other+`,{"kernel":"NOPE","cache":"8k"}]}`)
	if st != http.StatusOK {
		t.Fatalf("batch: status %d", st)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	if n := hdr.Get("X-Tilingd-Batch"); n != "3" {
		t.Fatalf("X-Tilingd-Batch %q, want 3", n)
	}
	if len(items) != 3 {
		t.Fatalf("answered %d items, want 3: %v", len(items), items)
	}
	if it := items[0]; it.Error != "" || !bytes.Equal(it.Result, single) || it.Source != "hit" {
		t.Fatalf("item 0 = %+v, want the cached single-request bytes as a hit", it)
	}
	if it := items[1]; it.Error != "" || it.Outcome != "ok" {
		t.Fatalf("item 1 = %+v, want a fresh ok result", it)
	}
	var r TileResponse
	if err := json.Unmarshal(items[1].Result, &r); err != nil || len(r.Tile) == 0 {
		t.Fatalf("item 1 result %s not a tile response (%v)", items[1].Result, err)
	}
	if it := items[2]; it.Result != nil || !strings.Contains(it.Error, "unknown kernel") {
		t.Fatalf("item 2 = %+v, want an unknown-kernel error line", it)
	}

	// The fresh item is now cached: a single request for it must serve the
	// exact batch bytes.
	st, again, hdr2 := post(t, ts.URL, other)
	if st != http.StatusOK || hdr2.Get("X-Tilingd-Cache") != "hit" {
		t.Fatalf("repeat of batch item: status %d cache %q", st, hdr2.Get("X-Tilingd-Cache"))
	}
	if !bytes.Equal(again, items[1].Result) {
		t.Fatalf("batch item bytes diverge from single-request bytes:\n%s\nvs\n%s", items[1].Result, again)
	}
}

// TestBatchRejectsMalformedWhole: empty and oversized batches, and bodies
// that do not parse, are rejected whole with 400 before any item runs.
func TestBatchRejectsMalformedWhole(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	var many []string
	for i := 0; i <= maxBatchItems; i++ {
		many = append(many, fastRequest)
	}
	for _, body := range []string{
		`{"requests":[]}`,
		`{}`,
		`{"requests":[` + strings.Join(many, ",") + `]}`,
		`{"bogus":1}`,
		`not json`,
	} {
		st, _, _ := postBatch(t, ts.URL, body)
		if st != http.StatusBadRequest {
			t.Errorf("body %.40q: status %d, want 400", body, st)
		}
	}
}

// TestBatchShedsWhileDraining: a draining server rejects whole batches
// with 503 like single requests.
func TestBatchShedsWhileDraining(t *testing.T) {
	s, ts, _ := testServer(t, Config{})
	s.Drain(context.Background())
	st, _, _ := postBatch(t, ts.URL, `{"requests":[`+fastRequest+`]}`)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("draining batch: status %d, want 503", st)
	}
}

// TestBatchCoalescesDuplicateItems: identical items in one batch are
// deduplicated by the singleflight group or the result cache — every
// item answers with the same bytes and only one search runs.
func TestBatchCoalescesDuplicateItems(t *testing.T) {
	_, ts, cap := testServer(t, Config{})
	st, items, _ := postBatch(t, ts.URL,
		`{"requests":[`+fastRequest+`,`+fastRequest+`,`+fastRequest+`]}`)
	if st != http.StatusOK || len(items) != 3 {
		t.Fatalf("status %d items %v", st, items)
	}
	for i := 1; i < 3; i++ {
		if !bytes.Equal(items[i].Result, items[0].Result) {
			t.Fatalf("duplicate items diverged:\n%s\nvs\n%s", items[0].Result, items[i].Result)
		}
	}
	var starts int
	for _, e := range cap.Events() {
		if e.Kind() == telemetry.KindSearchStart {
			starts++
		}
	}
	if starts > 1 {
		t.Fatalf("%d searches ran for 3 identical items, want 1", starts)
	}
}

// TestKernelsCatalog: GET /v1/kernels lists the Table-1 catalog with the
// metadata a client needs to build requests.
func TestKernelsCatalog(t *testing.T) {
	_, ts, _ := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var list kernelList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Kernels) == 0 {
		t.Fatal("empty catalog")
	}
	byName := map[string]KernelInfo{}
	for _, k := range list.Kernels {
		byName[k.Name] = k
	}
	mm, ok := byName["MM"]
	if !ok || mm.Depth == 0 || mm.DefaultSize == 0 || mm.Description == "" {
		t.Fatalf("MM entry missing or incomplete: %+v", mm)
	}
	if add, ok := byName["ADD"]; !ok || !add.ConflictBound {
		t.Fatalf("ADD should be listed conflict-bound: %+v", byName["ADD"])
	}

	// The catalog is read-only: POST is a method mismatch.
	postResp, err := http.Post(ts.URL+"/v1/kernels", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/kernels: status %d, want 405", postResp.StatusCode)
	}
}

// TestEvalCacheAcrossRequests: a capped request and its retry with a
// larger budget (same seed, hence the same sample) share evaluation-cache
// entries, and the answers are byte-identical to a server running with
// the cache disabled — the server-level face of the determinism contract.
func TestEvalCacheAcrossRequests(t *testing.T) {
	sOn, tsOn, capOn := testServer(t, Config{})
	sOff, tsOff, capOff := testServer(t, Config{EvalCacheEntries: -1})
	if sOn.evalCache == nil || sOff.evalCache != nil {
		t.Fatalf("evalCache wiring: on=%v off=%v", sOn.evalCache, sOff.evalCache)
	}
	retry := `{"kernel":"MM","size":48,"cache":"8k","seed":7,"maxEvaluations":80,"timeoutMs":30000}`
	for _, req := range []string{fastRequest, retry} {
		stOn, bodyOn, _ := post(t, tsOn.URL, req)
		stOff, bodyOff, _ := post(t, tsOff.URL, req)
		if stOn != http.StatusOK || stOff != http.StatusOK {
			t.Fatalf("status on=%d off=%d", stOn, stOff)
		}
		if !bytes.Equal(bodyOn, bodyOff) {
			t.Fatalf("shared cache changed a response:\non:  %s\noff: %s", bodyOn, bodyOff)
		}
	}
	// One search's repeats hit its own GA memo first, so a fitness-tier
	// hit is an evaluation the retry recalled from the capped request.
	fitnessHits := 0
	for _, e := range capOn.Events() {
		if h, ok := e.(telemetry.EvalCacheHit); ok && h.Tier == "fitness" {
			fitnessHits++
		}
	}
	if fitnessHits == 0 {
		t.Fatal("cache-enabled server recorded no fitness-tier hits across requests")
	}
	if hits := capOff.Counters().EvalCacheHits; hits != 0 {
		t.Fatalf("cache-disabled server recorded %d evaluation-cache hits", hits)
	}
}
