package server

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// postIdem is post with an Idempotency-Key header.
func postIdem(t *testing.T, url, body, key string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/tile", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	b := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(b)
		buf.Write(b[:n])
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, []byte(buf.String()), resp.Header
}

func journalRecoveredEvents(cap *telemetry.Capture) []telemetry.JournalRecovered {
	var out []telemetry.JournalRecovered
	for _, e := range cap.Events() {
		if jr, ok := e.(telemetry.JournalRecovered); ok {
			out = append(out, jr)
		}
	}
	return out
}

func TestIdempotentRetryServedFromJournal(t *testing.T) {
	_, ts, _ := testServer(t, Config{StateDir: t.TempDir()})
	st1, body1, h1 := postIdem(t, ts.URL, fastRequest, "job-1")
	if st1 != http.StatusOK {
		t.Fatalf("first POST: status %d body %s", st1, body1)
	}
	if src := h1.Get("X-Tilingd-Cache"); src == "journal" {
		t.Fatalf("first POST must not be a journal hit")
	}
	st2, body2, h2 := postIdem(t, ts.URL, fastRequest, "job-1")
	if st2 != http.StatusOK {
		t.Fatalf("retry: status %d", st2)
	}
	if src := h2.Get("X-Tilingd-Cache"); src != "journal" {
		t.Fatalf("retry source = %q, want journal", src)
	}
	if string(body1) != string(body2) {
		t.Fatalf("idempotent retry bytes differ:\n%s\n%s", body1, body2)
	}
	// A different key with the same body is not a journal hit at the
	// durability layer (the result cache may still answer it).
	_, _, h3 := postIdem(t, ts.URL, fastRequest, "job-2")
	if src := h3.Get("X-Tilingd-Cache"); src == "journal" {
		t.Fatalf("distinct key served from journal index")
	}
}

func TestRestartServesRecordedBytes(t *testing.T) {
	state := t.TempDir()
	s1, ts1, _ := testServer(t, Config{StateDir: state})
	st, body1, _ := postIdem(t, ts1.URL, fastRequest, "job-restart")
	if st != http.StatusOK {
		t.Fatalf("POST: status %d", st)
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s1.Drain(dctx)
	ts1.Close()

	// A fresh process over the same state dir: the retry is answered the
	// recorded bytes without rerunning anything.
	_, ts2, _ := testServer(t, Config{StateDir: state})
	st2, body2, h := postIdem(t, ts2.URL, fastRequest, "job-restart")
	if st2 != http.StatusOK {
		t.Fatalf("retry after restart: status %d", st2)
	}
	if src := h.Get("X-Tilingd-Cache"); src != "journal" {
		t.Fatalf("post-restart retry source = %q, want journal", src)
	}
	if string(body1) != string(body2) {
		t.Fatalf("post-restart retry bytes differ:\n%s\n%s", body1, body2)
	}
}

// resumableRequest runs long enough to cross several generation
// boundaries, so a mid-run snapshot exists to resume from.
const resumableRequest = `{"kernel":"MM","size":48,"cache":"8k","seed":7,"maxEvaluations":120,"timeoutMs":30000}`

// plantCrashState writes into state exactly what a SIGKILL mid-search
// leaves behind: a journal holding accepted+started (and optionally a
// checkpointed record pointing at a persisted gen>=1 snapshot) with no
// done record.
func plantCrashState(t *testing.T, state string, ref *Server, key string, withCheckpoint bool) {
	t.Helper()
	var req TileRequest
	if err := json.Unmarshal([]byte(resumableRequest), &req); err != nil {
		t.Fatal(err)
	}
	norm, err := ref.normalize(req)
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(state, "checkpoints")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	jr, _, err := journal.Open(filepath.Join(state, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if err := jr.Append(journal.Record{
		Op: journal.OpAccepted, Key: key, CacheKey: norm.key,
		Request: mustJSON(&req),
	}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{Op: journal.OpStarted, Key: key}); err != nil {
		t.Fatal(err)
	}
	if !withCheckpoint {
		return
	}
	// Capture a real mid-run snapshot by running the identical search with
	// a hook that keeps the first gen>=1 checkpoint.
	var snap *ga.Checkpoint
	opt := norm.options(ref)
	opt.Checkpoint = func(c *ga.Checkpoint) error {
		if snap == nil && c.Gen >= 1 {
			snap = c
		}
		return nil
	}
	if _, err := core.OptimizeTiling(context.Background(), norm.nest, opt); err != nil {
		t.Fatalf("reference search: %v", err)
	}
	if snap == nil {
		t.Fatalf("search never crossed generation 1; raise maxEvaluations")
	}
	path := filepath.Join(ckptDir, "crash.ckpt")
	if err := cliutil.SaveCheckpoint(context.Background(), path, snap); err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(journal.Record{
		Op: journal.OpCheckpointed, Key: key, Checkpoint: path, Gen: snap.Gen,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverResumesInterruptedSearchBitIdentical(t *testing.T) {
	// Reference: the uninterrupted run's exact response bytes.
	ref, tsRef, _ := testServer(t, Config{})
	st, want, _ := postIdem(t, tsRef.URL, resumableRequest, "")
	if st != http.StatusOK {
		t.Fatalf("reference POST: status %d", st)
	}

	state := t.TempDir()
	plantCrashState(t, state, ref, "job-crash", true)

	s, ts, cap := testServer(t, Config{StateDir: state})
	if n := s.Recover(context.Background()); n != 1 {
		t.Fatalf("Recover processed %d entries, want 1", n)
	}
	recs := journalRecoveredEvents(cap)
	if len(recs) != 1 || !recs[0].Resumed || recs[0].Gen < 1 || recs[0].Outcome != "ok" {
		t.Fatalf("JournalRecovered = %+v, want resumed ok from gen>=1", recs)
	}
	// The client's retry gets the recovered response — bit-identical to
	// the crash-free run (the ga resume contract, observed end to end).
	st2, got, h := postIdem(t, ts.URL, resumableRequest, "job-crash")
	if st2 != http.StatusOK {
		t.Fatalf("retry: status %d", st2)
	}
	if src := h.Get("X-Tilingd-Cache"); src != "journal" {
		t.Fatalf("retry source = %q, want journal", src)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed response differs from uninterrupted run:\n%s\n%s", got, want)
	}
	// The finished request's checkpoint files are gone.
	if _, err := os.Stat(filepath.Join(state, "checkpoints", "crash.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not cleaned up after recovery: %v", err)
	}
}

func TestRecoverTornJournalAndZeroLengthCheckpoint(t *testing.T) {
	ref, tsRef, _ := testServer(t, Config{})
	st, want, _ := postIdem(t, tsRef.URL, resumableRequest, "")
	if st != http.StatusOK {
		t.Fatalf("reference POST: status %d", st)
	}

	state := t.TempDir()
	plantCrashState(t, state, ref, "job-torn", true)
	// Zero the checkpoint (a crash mid-write on a filesystem that zero
	//-fills) and tear the journal's final record mid-byte.
	if err := os.WriteFile(filepath.Join(state, "checkpoints", "crash.ckpt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(state, "journal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts, cap := testServer(t, Config{StateDir: state})
	if n := s.Recover(context.Background()); n != 1 {
		t.Fatalf("Recover processed %d entries, want 1", n)
	}
	// The torn record (the checkpointed op) was quarantined and counted...
	skipped := 0
	for _, e := range cap.Events() {
		if _, ok := e.(telemetry.JournalSkipped); ok {
			skipped++
		}
	}
	if skipped != 1 || s.dur.skipped != 1 {
		t.Fatalf("journal_skipped = %d (state %d), want 1", skipped, s.dur.skipped)
	}
	// ...so recovery never saw the checkpoint pointer and ran fresh; had
	// it survived, the zero-length snapshot would have been rejected as
	// corrupt by the typed load path and recovery would run fresh anyway.
	recs := journalRecoveredEvents(cap)
	if len(recs) != 1 || recs[0].Resumed || recs[0].Outcome != "ok" {
		t.Fatalf("JournalRecovered = %+v, want fresh ok", recs)
	}
	st2, got, h := postIdem(t, ts.URL, resumableRequest, "job-torn")
	if st2 != http.StatusOK || h.Get("X-Tilingd-Cache") != "journal" {
		t.Fatalf("retry: status %d source %q", st2, h.Get("X-Tilingd-Cache"))
	}
	if string(got) != string(want) {
		t.Fatalf("fresh recovery response differs from reference:\n%s\n%s", got, want)
	}
}

func TestRecoverZeroLengthCheckpointFallsBackToFresh(t *testing.T) {
	ref, _, _ := testServer(t, Config{})
	state := t.TempDir()
	plantCrashState(t, state, ref, "job-zck", true)
	// The journal is intact; only the snapshot file is destroyed. The
	// typed checkpoint load classifies it corrupt, and recovery restarts
	// the search from scratch instead of failing the request.
	if err := os.WriteFile(filepath.Join(state, "checkpoints", "crash.ckpt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	s, _, cap := testServer(t, Config{StateDir: state})
	if n := s.Recover(context.Background()); n != 1 {
		t.Fatalf("Recover processed %d entries, want 1", n)
	}
	recs := journalRecoveredEvents(cap)
	if len(recs) != 1 || recs[0].Resumed || recs[0].Outcome != "ok" {
		t.Fatalf("JournalRecovered = %+v, want fresh ok", recs)
	}
	if _, _, ok := s.dur.lookup("job-zck"); !ok {
		t.Fatalf("recovered response not in idempotency index")
	}
}

func TestJournalAppendFailureShedsRequest(t *testing.T) {
	plan := faultinject.New(1, faultinject.Rule{
		Point: faultinject.JournalWrite, Action: faultinject.Error, Times: 1,
	})
	_, ts, _ := testServer(t, Config{StateDir: t.TempDir(), Faults: plan})
	st, body, h := postIdem(t, ts.URL, fastRequest, "job-fault")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("faulted journal append: status %d body %s, want 503", st, body)
	}
	if h.Get("Retry-After") == "" {
		t.Fatalf("shed response carries no Retry-After")
	}
	// The fault fired once; the retry is accepted and journaled.
	st2, _, _ := postIdem(t, ts.URL, fastRequest, "job-fault")
	if st2 != http.StatusOK {
		t.Fatalf("retry after fault: status %d", st2)
	}
}

// TestCheckpointWriteFaultFromConfig: Config.Faults arms the
// checkpoint.write point of the server's checkpoint persistence, as it
// arms the journal and the searches. With every snapshot write failing,
// the request still answers 200, not degraded, and the breaker stays
// closed: a checkpoint is insurance, never part of the answer.
func TestCheckpointWriteFaultFromConfig(t *testing.T) {
	plan := faultinject.New(1, faultinject.Rule{
		Point: faultinject.CheckpointWrite, Action: faultinject.Error,
	})
	_, ts, _ := testServer(t, Config{StateDir: t.TempDir(), Faults: plan})
	st, body, _ := postIdem(t, ts.URL, fastRequest, "job-ckpt-fault")
	if st != http.StatusOK {
		t.Fatalf("status %d body %s, want 200", st, body)
	}
	var r TileResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Degraded || r.Fallback {
		t.Fatalf("failed checkpoint writes degraded the answer: %s", body)
	}
	if hits, fired := plan.Counts(faultinject.CheckpointWrite); hits < 1 || fired < 1 {
		t.Fatalf("checkpoint.write hit %d times, fired %d; want both >= 1", hits, fired)
	}
	if b := healthOf(t, ts.URL).Breaker; b != "closed" {
		t.Fatalf("breaker = %q, want closed", b)
	}
}

func TestUnreplayableEntryClosedOut(t *testing.T) {
	state := t.TempDir()
	jr, _, err := journal.Open(filepath.Join(state, "journal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An accepted record whose kernel no longer exists cannot be re-run.
	if err := jr.Append(journal.Record{
		Op: journal.OpAccepted, Key: "job-gone", CacheKey: "x",
		Request: json.RawMessage(`{"kernel":"NOPE","cache":"8k"}`),
	}); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	s, _, cap := testServer(t, Config{StateDir: state})
	if n := s.Recover(context.Background()); n != 1 {
		t.Fatalf("Recover processed %d entries, want 1", n)
	}
	recs := journalRecoveredEvents(cap)
	if len(recs) != 1 || recs[0].Outcome != "unreplayable" {
		t.Fatalf("JournalRecovered = %+v, want unreplayable", recs)
	}
	// The entry is closed: a second boot has nothing to recover.
	s2, _, _ := testServer(t, Config{StateDir: state})
	if n := s2.Recover(context.Background()); n != 0 {
		t.Fatalf("second Recover processed %d entries, want 0", n)
	}
}

func TestBatchItemsJournaledPerIndex(t *testing.T) {
	_, ts, _ := testServer(t, Config{StateDir: t.TempDir()})
	batch := `{"requests":[` + fastRequest + `,{"kernel":"MM","size":48,"cache":"32k","seed":7,"maxEvaluations":40,"timeoutMs":30000}]}`
	do := func() map[int]BatchItem {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/tile/batch", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "batch-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d", resp.StatusCode)
		}
		items := map[int]BatchItem{}
		dec := json.NewDecoder(resp.Body)
		for dec.More() {
			var it BatchItem
			if err := dec.Decode(&it); err != nil {
				t.Fatalf("decode item: %v", err)
			}
			items[it.Index] = it
		}
		return items
	}
	first := do()
	second := do()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("items: %d then %d, want 2 each", len(first), len(second))
	}
	for i := 0; i < 2; i++ {
		if second[i].Source != "journal" {
			t.Fatalf("retried batch item %d source = %q, want journal", i, second[i].Source)
		}
		if string(first[i].Result) != string(second[i].Result) {
			t.Fatalf("batch item %d retry bytes differ", i)
		}
	}
}

func TestStateDirDisabledKeepsPlainPath(t *testing.T) {
	s, ts, _ := testServer(t, Config{})
	if s.dur != nil {
		t.Fatalf("durability armed without StateDir")
	}
	st, _, h := postIdem(t, ts.URL, fastRequest, "job-plain")
	if st != http.StatusOK || h.Get("X-Tilingd-Cache") == "journal" {
		t.Fatalf("plain server: status %d source %q", st, h.Get("X-Tilingd-Cache"))
	}
}
