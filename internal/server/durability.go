package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/faultinject"
	"repro/internal/ga"
	"repro/internal/journal"
	"repro/internal/lru"
	"repro/internal/telemetry"
)

// errJournalUnavailable marks a request the server refused to run because
// its accepted record could not be made durable: without the record a
// crash would silently lose the request, so the client is told to retry
// instead.
var errJournalUnavailable = errors.New("server: request journal unavailable")

// maxIdemKeyBytes bounds the Idempotency-Key header (it is stored
// verbatim in every journal record for the request).
const maxIdemKeyBytes = 256

// durability is the server's crash-safety layer, armed by Config.StateDir:
// a write-ahead request journal, per-search generation-boundary
// checkpoints, and the idempotency index that serves duplicate retries the
// exact recorded response bytes.
type durability struct {
	jr       *journal.Journal
	ckptDir  string
	interval time.Duration
	now      func() time.Time
	// faults is Config.Faults; its checkpoint.write point arms
	// checkpoint persistence.
	faults *faultinject.Plan

	// idem maps idempotency key to recorded response, LRU-bounded: the
	// in-memory projection of the journal's done records.
	idem *lru.Cache[string, idemEntry]

	mu sync.Mutex
	// pending holds the latest not-yet-persisted snapshot per in-flight
	// search, so a drain can flush them before the process exits.
	pending map[string]*pendingSnap
	// incomplete is the replayed backlog Recover works through.
	incomplete []*journal.Entry
	// skipped is the quarantined-record count from startup replay,
	// surfaced on /healthz.
	skipped int
}

// pendingSnap throttles checkpoint persistence for one in-flight search.
type pendingSnap struct {
	last time.Time      // when a snapshot was last persisted
	snap *ga.Checkpoint // newest snapshot not yet persisted
}

// openDurability builds the layer from a server config: the journal is
// replayed (compacting as a side effect), completed entries seed the
// idempotency index, and incomplete ones queue for Recover.
func openDurability(cfg Config) (*durability, error) {
	d := &durability{
		ckptDir:  filepath.Join(cfg.StateDir, "checkpoints"),
		interval: cfg.CheckpointInterval,
		now:      cfg.Now,
		faults:   cfg.Faults,
		idem:     lru.New[string, idemEntry](cfg.CacheEntries),
		pending:  make(map[string]*pendingSnap),
	}
	if err := os.MkdirAll(d.ckptDir, 0o755); err != nil {
		return nil, err
	}
	jr, st, err := journal.Open(filepath.Join(cfg.StateDir, "journal"), journal.Options{
		Sync:     cfg.JournalSync,
		Faults:   cfg.Faults,
		Observer: cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	d.jr = jr
	d.skipped = st.Skipped
	for _, e := range st.Completed() {
		if len(e.Response) > 0 && e.Outcome != "error" {
			d.idem.Put(e.Key, idemEntry{e.Response, e.Outcome})
		}
	}
	d.incomplete = st.Incomplete()
	return d, nil
}

// lookup serves a duplicate idempotent retry from the recorded bytes.
func (d *durability) lookup(key string) (body []byte, outcome string, ok bool) {
	e, ok := d.idem.Get(key)
	return e.body, e.outcome, ok
}

// accepted makes the request durable before its search runs: the
// idempotency key, the canonical cache key, and the request body land in
// the journal, followed by the started marker. An append failure means
// the request is NOT crash-safe — the caller must shed it.
func (d *durability) accepted(key, cacheKey string, req *TileRequest) error {
	if err := d.jr.Append(journal.Record{
		Op: journal.OpAccepted, Key: key, CacheKey: cacheKey,
		Request: mustJSON(req),
	}); err != nil {
		return err
	}
	return d.jr.Append(journal.Record{Op: journal.OpStarted, Key: key})
}

// done closes the request's journal trail with its exact response bytes,
// publishes them to the idempotency index, and discards the now-redundant
// checkpoint files. Journal failures here are swallowed: the response is
// already computed and will be sent; the only cost is a redundant re-run
// after a crash.
func (d *durability) done(key string, body []byte, outcome string) {
	_ = d.jr.Append(journal.Record{
		Op: journal.OpDone, Key: key, Response: body, Outcome: outcome,
	})
	d.idem.Put(key, idemEntry{body, outcome})
	d.forget(key)
}

// fail closes the trail of a request that errored: no response bytes to
// replay, so retries (and the post-crash recovery) run it afresh — the
// done record only stops recovery from replaying a request whose client
// already saw the error.
func (d *durability) fail(key string) {
	_ = d.jr.Append(journal.Record{Op: journal.OpDone, Key: key, Outcome: "error"})
	d.forget(key)
}

// forget drops the pending snapshot and checkpoint files for key.
func (d *durability) forget(key string) {
	d.mu.Lock()
	delete(d.pending, key)
	d.mu.Unlock()
	path := d.checkpointPath(key)
	_ = os.Remove(path)
	_ = os.Remove(cliutil.PrevCheckpoint(path))
}

// checkpointPath derives the snapshot file for an idempotency key (the
// key is hashed: it is client-supplied and must not steer file names).
func (d *durability) checkpointPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.ckptDir, hex.EncodeToString(sum[:8])+".ckpt")
}

// hook returns the ga.Checkpoint callback for one search: it persists
// generation-boundary snapshots with the cliutil temp+fsync+rename
// discipline, journals a checkpointed record for each persisted one, and
// throttles the disk traffic to one save per CheckpointInterval (0 =
// every generation). Persistence failures never abort the search — a
// checkpoint is insurance, not a correctness requirement — so the hook
// always returns nil.
func (d *durability) hook(key string) func(*ga.Checkpoint) error {
	return func(c *ga.Checkpoint) error {
		now := d.now()
		d.mu.Lock()
		p := d.pending[key]
		if p == nil {
			p = &pendingSnap{}
			d.pending[key] = p
		}
		due := d.interval <= 0 || p.last.IsZero() || now.Sub(p.last) >= d.interval
		if !due {
			p.snap = c
			d.mu.Unlock()
			return nil
		}
		p.last, p.snap = now, nil
		d.mu.Unlock()
		d.persist(key, c)
		return nil
	}
}

// persist writes one snapshot and journals its location; best-effort.
func (d *durability) persist(key string, c *ga.Checkpoint) {
	path := d.checkpointPath(key)
	ctx := faultinject.With(context.Background(), d.faults)
	if err := cliutil.SaveCheckpoint(ctx, path, c); err != nil {
		return
	}
	_ = d.jr.Append(journal.Record{
		Op: journal.OpCheckpointed, Key: key, Checkpoint: path, Gen: c.Gen,
	})
}

// flush persists every throttled-back snapshot — called when a drain
// begins, so a kill during the grace period loses at most the
// generations since the drain started.
func (d *durability) flush() {
	d.mu.Lock()
	type item struct {
		key  string
		snap *ga.Checkpoint
	}
	var todo []item
	for key, p := range d.pending {
		if p.snap != nil {
			todo = append(todo, item{key, p.snap})
			p.snap = nil
			p.last = d.now()
		}
	}
	d.mu.Unlock()
	for _, it := range todo {
		d.persist(it.key, it.snap)
	}
}

// close flushes and closes the journal.
func (d *durability) close() {
	_ = d.jr.Close()
}

// takeIncomplete hands Recover the replayed backlog exactly once.
func (d *durability) takeIncomplete() []*journal.Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	inc := d.incomplete
	d.incomplete = nil
	return inc
}

// Recover replays the journal backlog: every request that was accepted
// before the last shutdown but never answered is re-run — resumed from
// its latest persisted checkpoint when one loads (bit-identical to the
// uninterrupted run for a fixed seed), from scratch otherwise — and its
// response is journaled and published for idempotent retries. Entries
// whose request no longer normalizes are closed out as unreplayable
// rather than wedging recovery. Requests run sequentially through the
// normal admission gate, so recovery competes fairly with live traffic;
// ctx bounds the whole pass. Returns the number of entries processed.
func (s *Server) Recover(ctx context.Context) int {
	if s.dur == nil {
		return 0
	}
	entries := s.dur.takeIncomplete()
	for _, e := range entries {
		s.recoverOne(ctx, e)
	}
	return len(entries)
}

// recoverOne replays one incomplete journal entry.
func (s *Server) recoverOne(ctx context.Context, e *journal.Entry) {
	norm := s.renormalize(e)
	if norm == nil {
		// The request cannot be rebuilt (corrupt record, kernel gone,
		// limits tightened): close its trail so it is not retried forever.
		s.dur.fail(e.Key)
		s.emit(telemetry.JournalRecovered{Key: e.Key, Outcome: "unreplayable"})
		return
	}
	resumed := false
	if e.Checkpoint != "" {
		if c, _, err := cliutil.LoadCheckpoint(e.Checkpoint, s.cfg.Observer); err == nil {
			norm.resume = c
			resumed = true
		}
	}
	finish, _, reason := s.admitCtx(ctx)
	if finish == nil {
		// Shed (draining or saturated): leave the entry incomplete so the
		// next startup retries it.
		s.emit(telemetry.JournalRecovered{
			Key: e.Key, Kernel: norm.kernelName, Resumed: resumed,
			Gen: e.Gen, Outcome: "deferred: " + reason,
		})
		return
	}
	defer finish()
	body, outcome, _, err := s.serve(ctx, norm)
	if err != nil {
		s.dur.fail(e.Key)
		outcome = "error"
	} else {
		s.dur.done(e.Key, body, outcome)
	}
	// done/fail removed the hash-derived snapshot files; the journal entry
	// may record an older path, now equally redundant.
	if e.Checkpoint != "" {
		_ = os.Remove(e.Checkpoint)
		_ = os.Remove(cliutil.PrevCheckpoint(e.Checkpoint))
	}
	s.emit(telemetry.JournalRecovered{
		Key: e.Key, Kernel: norm.kernelName, Resumed: resumed,
		Gen: e.Gen, Outcome: outcome,
	})
}

// renormalize rebuilds the normalized request from a journal entry.
func (s *Server) renormalize(e *journal.Entry) *normRequest {
	if len(e.Request) == 0 {
		return nil
	}
	var req TileRequest
	if err := json.Unmarshal(e.Request, &req); err != nil {
		return nil
	}
	norm, err := s.normalize(req)
	if err != nil {
		return nil
	}
	norm.idemKey = e.Key
	return norm
}

// durableServe wraps serve with the journal lifecycle for one admitted
// request: accepted and started before the work, done (carrying the exact
// response bytes) after it. Without a state dir it is serve verbatim.
func (s *Server) durableServe(ctx context.Context, norm *normRequest, req *TileRequest) (body []byte, outcome, source string, err error) {
	if s.dur == nil {
		return s.serve(ctx, norm)
	}
	if err := s.dur.accepted(norm.idemKey, norm.key, req); err != nil {
		return nil, "", "", errJournalUnavailable
	}
	body, outcome, source, err = s.serve(ctx, norm)
	if err != nil {
		s.dur.fail(norm.idemKey)
		return nil, "", "", err
	}
	s.dur.done(norm.idemKey, body, outcome)
	return body, outcome, source, nil
}

// idemKeyFor resolves the idempotency key of a request: the client's
// Idempotency-Key header when present, else the canonical cache key (so
// byte-identical retries are idempotent even without the header).
func idemKeyFor(header string, norm *normRequest) string {
	if header != "" {
		return header
	}
	return norm.key
}

// idemEntry is one recorded response in the idempotency index.
type idemEntry struct {
	body    []byte
	outcome string
}
