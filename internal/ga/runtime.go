package ga

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// ErrCheckpointCorrupt is wrapped by every ReadCheckpoint failure caused
// by the snapshot's content — undecodable JSON (including a zero-length
// file) or a failed integrity sum — as opposed to the I/O errors of
// reading it. Callers use errors.Is to distinguish "the file is bad"
// (fall back to the previous-good copy, alert on storage) from "the read
// failed" (alert on the environment).
var ErrCheckpointCorrupt = errors.New("ga: checkpoint corrupt")

// StopReason explains why a search run terminated. The zero value,
// StopConverged, is the normal Figure-7 termination (convergence criterion
// or generation cap); every other reason marks an externally bounded run
// whose Result still carries the best candidate found so far.
type StopReason int

const (
	// StopConverged is normal termination: the §3.3 convergence criterion
	// fired inside the 15–25 generation window, or the hard generation cap
	// was reached. Only this reason matches the paper's Figure-7 schedule.
	StopConverged StopReason = iota
	// StopDeadline means the context's deadline expired mid-search.
	StopDeadline
	// StopBudget means the MaxEvaluations budget was exhausted.
	StopBudget
	// StopCancelled means the context was cancelled (e.g. SIGINT).
	StopCancelled
)

func (r StopReason) String() string {
	switch r {
	case StopDeadline:
		return "deadline"
	case StopBudget:
		return "budget"
	case StopCancelled:
		return "cancelled"
	default:
		return "converged"
	}
}

// MemoEntry is one (genome, objective value) pair of the evaluation memo.
type MemoEntry struct {
	Bits  []byte  `json:"bits"`
	Value float64 `json:"value"`
}

// Checkpoint is a JSON-serialisable snapshot of a run taken at a
// generation boundary. Restoring it with Config.ResumeFrom continues the
// search deterministically: a run interrupted at generation k and resumed
// from its checkpoint produces exactly the result of the uninterrupted
// run, because the snapshot carries the population, the PCG state, the
// evaluation memo and the accumulated history.
type Checkpoint struct {
	Version int `json:"version"`
	// Label names the search phase that wrote the snapshot (e.g.
	// "tiling", "padding"); resuming under a different non-empty label is
	// rejected.
	Label string `json:"label,omitempty"`
	// SpecBits guards against resuming with a different genome layout.
	SpecBits int `json:"spec_bits"`
	// Gen is the last completed generation; Evals the objective calls
	// spent so far.
	Gen   int `json:"gen"`
	Evals int `json:"evals"`
	// RNG is the marshalled PCG state at the generation boundary.
	RNG []byte `json:"rng"`
	// Pop holds each individual's genome (one byte per bit).
	Pop [][]byte `json:"pop"`
	// Memo replays the evaluation cache so resumed runs neither re-spend
	// budget on known genomes nor drift in their Evaluations count.
	Memo []MemoEntry `json:"memo"`
	// Best-so-far state and the recorded per-generation history.
	Best      []int64    `json:"best"`
	BestValue float64    `json:"best_value"`
	History   []GenStats `json:"history"`
	// Round and Islands are the version-2 island-model extension: Round is
	// the number of completed migration rounds, Islands one entry per deme
	// in island order. Both carry omitempty so version-1 single-population
	// snapshots keep their exact historical encoding; in a version-2
	// snapshot the top-level Gen/Evals/Best/BestValue summarise the merged
	// state while RNG/Pop/Memo/History stay empty (the per-island copies
	// are authoritative).
	Round   int           `json:"round,omitempty"`
	Islands []IslandState `json:"islands,omitempty"`
	// EvalPoints and Fidelity are the version-3 multi-fidelity extension:
	// EvalPoints is the sample-point budget counter (points classified so
	// far), Fidelity the resolved ladder schedule the run was using. Both
	// carry omitempty so version-1/2 snapshots keep their exact historical
	// encoding.
	EvalPoints int64          `json:"eval_points,omitempty"`
	Fidelity   *FidelityState `json:"fidelity,omitempty"`
	// Sum is the hex SHA-256 of the snapshot's canonical encoding (the
	// same JSON with Sum itself empty). WriteCheckpoint fills it in;
	// ReadCheckpoint refuses a snapshot whose body does not hash back to
	// it, so a torn write or bit-flipped file is detected instead of
	// silently resuming corrupted state. Snapshots without a Sum (written
	// before it existed) are accepted unverified.
	Sum string `json:"sum,omitempty"`
}

// checkpointVersion is bumped whenever the snapshot layout changes.
const checkpointVersion = 1

// checkpointVersionIslands marks snapshots written by the island-model
// runtime (Config.Islands > 1): version 2 adds the Round counter and one
// IslandState per deme. Version-1 snapshots still load for
// single-population runs.
const checkpointVersionIslands = 2

// checkpointVersionFidelity marks snapshots written with the
// multi-fidelity ladder enabled (Config.Fidelity): version 3 adds the
// classified-point counters and the resolved rung schedule, for both the
// single-population and island layouts. A fidelity run can only resume a
// version-3 snapshot whose schedule matches its own.
const checkpointVersionFidelity = 3

// FidelityState records the resolved fidelity schedule inside a
// version-3 checkpoint, guarding a resume against a drifted ladder. Eta
// and MinPoints always hold the ladder's fixed halving factor (2) and
// floor (16); a snapshot recording any other shape is refused.
type FidelityState struct {
	Rungs     int     `json:"rungs"`
	Eta       float64 `json:"eta"`
	MinPoints int     `json:"min_points"`
	// Points is the full-fidelity sample size the schedule was built on.
	Points int `json:"points"`
}

// IslandState is one deme's share of a version-2 checkpoint: the same
// population/RNG/memo/history capture the single-population snapshot
// holds, scoped to one island.
type IslandState struct {
	Gen       int         `json:"gen"`
	Evals     int         `json:"evals"`
	RNG       []byte      `json:"rng"`
	Pop       [][]byte    `json:"pop"`
	Memo      []MemoEntry `json:"memo"`
	Best      []int64     `json:"best"`
	BestValue float64     `json:"best_value"`
	History   []GenStats  `json:"history"`
	// EvalPoints is the deme's classified-point counter (version 3 only;
	// omitempty keeps version-2 snapshots byte-identical).
	EvalPoints int64 `json:"eval_points,omitempty"`
}

// validate checks a snapshot against the run configuration it is about to
// restart. Island-model runs (cfg.Islands > 1) require a version-2
// snapshot with one IslandState per configured deme; single-population
// runs require the flat version-1 layout.
func (c *Checkpoint) validate(spec Spec, cfg Config) error {
	want := checkpointVersion
	if cfg.Islands > 1 {
		want = checkpointVersionIslands
	}
	if cfg.Fidelity.Enabled() {
		want = checkpointVersionFidelity
	}
	switch {
	case c.Version != want:
		return fmt.Errorf("ga: checkpoint version %d (want %d)", c.Version, want)
	case c.SpecBits != spec.TotalBits():
		return fmt.Errorf("ga: checkpoint genome is %d bits, spec wants %d", c.SpecBits, spec.TotalBits())
	case cfg.Label != "" && c.Label != "" && c.Label != cfg.Label:
		return fmt.Errorf("ga: checkpoint labelled %q, search is %q", c.Label, cfg.Label)
	}
	if cfg.Fidelity.Enabled() {
		f := c.Fidelity
		if f == nil {
			return fmt.Errorf("ga: checkpoint version %d records no fidelity schedule", c.Version)
		}
		if f.Rungs != cfg.Fidelity.Rungs || f.Eta != fidelityEta || f.MinPoints != fidelityFloor {
			return fmt.Errorf("ga: checkpoint fidelity schedule (rungs=%d eta=%v min=%d) does not match config (rungs=%d eta=%v min=%d)",
				f.Rungs, f.Eta, f.MinPoints, cfg.Fidelity.Rungs, fidelityEta, fidelityFloor)
		}
	} else if c.Fidelity != nil {
		return fmt.Errorf("ga: checkpoint was written with fidelity pruning enabled; this run has it off")
	}
	if cfg.Islands > 1 {
		return c.validateIslands(spec, cfg)
	}
	switch {
	case len(c.Pop) != cfg.PopSize:
		return fmt.Errorf("ga: checkpoint population %d, config wants %d", len(c.Pop), cfg.PopSize)
	case c.Gen < 0 || c.Evals < 0:
		return fmt.Errorf("ga: checkpoint counters gen=%d evals=%d", c.Gen, c.Evals)
	case len(c.History) == 0:
		return fmt.Errorf("ga: checkpoint has no recorded history")
	}
	for i, bits := range c.Pop {
		if len(bits) != spec.TotalBits() {
			return fmt.Errorf("ga: checkpoint individual %d has %d bits, want %d", i, len(bits), spec.TotalBits())
		}
	}
	return nil
}

// validateIslands checks the version-2 per-island payload.
func (c *Checkpoint) validateIslands(spec Spec, cfg Config) error {
	if len(c.Islands) != cfg.Islands {
		return fmt.Errorf("ga: checkpoint has %d islands, config wants %d", len(c.Islands), cfg.Islands)
	}
	if c.Round < 0 {
		return fmt.Errorf("ga: checkpoint migration round %d", c.Round)
	}
	sizes := islandSizes(cfg.PopSize, cfg.Islands)
	for i := range c.Islands {
		st := &c.Islands[i]
		switch {
		case len(st.Pop) == 0 || len(st.Pop) > sizes[i]:
			return fmt.Errorf("ga: checkpoint island %d population %d, config allows 1..%d", i+1, len(st.Pop), sizes[i])
		case st.Gen < 0 || st.Evals < 0:
			return fmt.Errorf("ga: checkpoint island %d counters gen=%d evals=%d", i+1, st.Gen, st.Evals)
		case len(st.History) == 0:
			return fmt.Errorf("ga: checkpoint island %d has no recorded history", i+1)
		}
		for j, bits := range st.Pop {
			if len(bits) != spec.TotalBits() {
				return fmt.Errorf("ga: checkpoint island %d individual %d has %d bits, want %d", i+1, j, len(bits), spec.TotalBits())
			}
		}
	}
	return nil
}

// checkpointOf snapshots a run at a barrier: the flat version-1 layout
// for a lone deme, one IslandState per deme (version 2) otherwise, and
// version 3 for either layout when the fidelity ladder is on. The
// top-level Gen, Evals, EvalPoints and Best summarise every deme.
func checkpointOf(demes []*deme, cfg Config, nbits, round int) (*Checkpoint, error) {
	cp := &Checkpoint{Version: checkpointVersion, Label: cfg.Label, SpecBits: nbits}
	if len(demes) > 1 {
		cp.Version, cp.Round = checkpointVersionIslands, round
	}
	if cfg.Fidelity.Enabled() {
		cp.Version = checkpointVersionFidelity
		cp.Fidelity = &FidelityState{
			Rungs: cfg.Fidelity.Rungs, Eta: fidelityEta,
			MinPoints: fidelityFloor, Points: cfg.Points,
		}
	}
	states := make([]IslandState, len(demes))
	for i, d := range demes {
		st, err := d.state()
		if err != nil {
			return nil, err
		}
		states[i] = st
		cp.Evals += st.Evals
		cp.EvalPoints += st.EvalPoints
		cp.Gen = max(cp.Gen, st.Gen)
		if st.Best != nil && (cp.Best == nil || st.BestValue < cp.BestValue) {
			cp.Best, cp.BestValue = st.Best, st.BestValue
		}
	}
	if len(demes) > 1 {
		cp.Islands = states
		return cp, nil
	}
	st := states[0]
	cp.RNG, cp.Pop, cp.Memo, cp.History = st.RNG, st.Pop, st.Memo, st.History
	cp.BestValue = st.BestValue
	return cp, nil
}

// demeStates returns a validated snapshot's per-deme states and the
// number of completed barrier rounds. A flat single-population snapshot
// is one deme whose barrier follows every generation, so its round count
// is Gen.
func (c *Checkpoint) demeStates() ([]IslandState, int) {
	if len(c.Islands) > 0 {
		return c.Islands, c.Round
	}
	return []IslandState{{
		Gen: c.Gen, Evals: c.Evals, RNG: c.RNG, Pop: c.Pop, Memo: c.Memo,
		Best: c.Best, BestValue: c.BestValue, History: c.History,
		EvalPoints: c.EvalPoints,
	}}, c.Gen
}

// state captures the deme for a checkpoint.
func (d *deme) state() (IslandState, error) {
	rngState, err := d.src.MarshalBinary()
	if err != nil {
		return IslandState{}, d.errorf("marshalling RNG state: %w", err)
	}
	st := IslandState{
		Gen:        d.gen,
		Evals:      d.evals,
		RNG:        rngState,
		Pop:        make([][]byte, len(d.pop)),
		Memo:       make([]MemoEntry, 0, len(d.memo)),
		Best:       append([]int64(nil), d.best...),
		BestValue:  d.bestValue,
		History:    append([]GenStats(nil), d.history...),
		EvalPoints: d.evalPoints,
	}
	for i := range d.pop {
		st.Pop[i] = cloneBits(d.pop[i].bits)
	}
	for k, v := range d.memo {
		st.Memo = append(st.Memo, MemoEntry{Bits: []byte(k), Value: v})
	}
	return st, nil
}

// restore rebuilds the deme's generation-boundary state — population, RNG
// stream, memo, counters and history — from a checkpoint; continuing from
// there replays the uninterrupted run exactly.
func (d *deme) restore(st IslandState) error {
	if err := d.src.UnmarshalBinary(st.RNG); err != nil {
		return d.errorf("restoring RNG state: %w", err)
	}
	d.gen = st.Gen
	d.evals = st.Evals
	d.evalPoints = st.EvalPoints
	// The interrupted run already reported its evaluations; only work
	// done after the resume point flows to this run's observer.
	d.flushedEvals = st.Evals
	for _, e := range st.Memo {
		d.memo[string(e.Bits)] = e.Value
	}
	d.pop = make([]individual, len(st.Pop))
	for i, bits := range st.Pop {
		v, ok := d.memo[string(bits)]
		if !ok {
			return d.errorf("checkpoint individual %d missing from memo", i)
		}
		d.pop[i] = individual{bits: cloneBits(bits), value: v}
	}
	d.best = append([]int64(nil), st.Best...)
	d.bestValue = st.BestValue
	d.history = append([]GenStats(nil), st.History...)
	return nil
}

// errorf formats a deme error, naming the island in a multi-island run.
func (d *deme) errorf(format string, args ...any) error {
	if d.island > 0 {
		format = fmt.Sprintf("island %d %s", d.island, format)
	}
	return fmt.Errorf("ga: "+format, args...)
}

// marshalCheckpoint is the one canonical encoding (indented JSON, fixed
// field order) shared by writing and checksum verification.
func marshalCheckpoint(c *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkpointSum is the hex SHA-256 of a snapshot's canonical body.
func checkpointSum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// WriteCheckpoint serialises a snapshot as indented JSON with its
// SHA-256 integrity sum filled in. The memo is written in sorted genome
// order so identical states produce identical bytes; the sort operates
// on a copy, so the caller's Checkpoint (often the GA's live snapshot)
// is never reordered behind its back.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	cp := *c
	cp.Memo = append([]MemoEntry(nil), c.Memo...)
	sort.Slice(cp.Memo, func(i, j int) bool {
		return bytes.Compare(cp.Memo[i].Bits, cp.Memo[j].Bits) < 0
	})
	// Version-2 snapshots carry one memo per island; each gets the same
	// canonical ordering on its own copy.
	if len(c.Islands) > 0 {
		cp.Islands = append([]IslandState(nil), c.Islands...)
		for i := range cp.Islands {
			memo := append([]MemoEntry(nil), cp.Islands[i].Memo...)
			sort.Slice(memo, func(a, b int) bool {
				return bytes.Compare(memo[a].Bits, memo[b].Bits) < 0
			})
			cp.Islands[i].Memo = memo
		}
	}
	cp.Sum = ""
	body, err := marshalCheckpoint(&cp)
	if err != nil {
		return err
	}
	cp.Sum = checkpointSum(body)
	out, err := marshalCheckpoint(&cp)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// ReadCheckpoint deserialises a snapshot written by WriteCheckpoint and
// verifies its integrity sum: the decoded state must hash back to the
// recorded SHA-256, so truncated or bit-flipped snapshots are rejected
// here rather than corrupting a resumed search. Legacy snapshots with no
// sum are accepted unverified.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("%w: decoding: %v", ErrCheckpointCorrupt, err)
	}
	if c.Sum != "" {
		want := c.Sum
		c.Sum = ""
		body, err := marshalCheckpoint(&c)
		if err != nil {
			return nil, fmt.Errorf("ga: re-encoding checkpoint for verification: %w", err)
		}
		if got := checkpointSum(body); got != want {
			return nil, fmt.Errorf("%w: integrity: sum %s does not match recorded %s", ErrCheckpointCorrupt, got, want)
		}
		c.Sum = want
	}
	return &c, nil
}
