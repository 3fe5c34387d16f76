package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	cmetiling "repro"
)

// The three workloads. Each op list below is a pure function of
// (workload, seed): the program under test only ever sees the generated
// requests.
const (
	wlSearchCold  = "search-cold"
	wlServeSearch = "serve-search"
	wlServeReplay = "serve-replay"
)

var workloads = []string{wlSearchCold, wlServeSearch, wlServeReplay}

// kernelSizes are the three problem sizes each kernel runs at. They are
// fixed, not seed-drawn: the replacement ratio of a kernel's best tile
// swings with its size far more than with the GA seed, and a seed-drawn
// size made the quality metrics wander from seed to seed. The sizes keep
// every nest small enough that the exact trace simulation of a returned
// tile costs milliseconds. Search cost barely grows with problem size
// (the sample is 164 points at any size); across kernels and caches it
// spans a continuum from 0.06 to 1.1 s per search on a 2-CPU host.
var kernelSizes = map[string][3]int64{
	"T2D": {120, 160, 200}, "ADI": {150, 175, 200}, "MATMUL": {112, 120, 128},
	"VPENTA1": {88, 96, 104}, "VPENTA2": {88, 96, 104},
	"MM": {60, 64, 68}, "T3DJIK": {24, 32, 40}, "T3DIKJ": {24, 32, 40}, "JACOBI3D": {18, 20, 22},
	"DPSSB": {20, 28, 36}, "DPSSF": {20, 28, 36}, "DRADBG1": {20, 28, 36}, "DRADBG2": {20, 28, 36},
	"DRADFG1": {20, 28, 36}, "DRADFG2": {20, 28, 36},
	"BTRIX": {12, 13, 14}, "ADD": {14, 16, 18},
}

// costWeight is each kernel's search cost on DM8K relative to T2D
// (0.11 s), measured on a 2-CPU host; DM32K costs about 2.5 times more.
// It decides which kernels search-cold repeats and how it orders them.
var costWeight = map[string]float64{
	"T2D": 1, "T3DIKJ": 1.1, "T3DJIK": 1.1, "DRADBG2": 1.2, "DRADFG1": 1.4, "DRADBG1": 1.5,
	"DPSSF": 1.8, "DRADFG2": 1.8, "ADI": 1.8, "DPSSB": 2.3, "BTRIX": 3.2, "VPENTA1": 4,
	"MATMUL": 4, "MM": 4.5, "JACOBI3D": 5, "ADD": 7.5, "VPENTA2": 9,
}

func weight(op searchOp) float64 {
	if op.Cache == "32k" {
		return 2.5 * costWeight[op.Kernel]
	}
	return costWeight[op.Kernel]
}

// cheapKernels search in 0.1-0.3 s on DM8K. search-cold repeats them at
// all three sizes, and runs some on DM32K too, so a 36-second window
// holds well over 100 ops.
var cheapKernels = []string{"T2D", "T3DIKJ", "T3DJIK", "DPSSB", "DPSSF", "DRADBG1", "DRADBG2", "DRADFG1", "DRADFG2", "ADI"}

// cold32K are the kernels search-cold also runs against DM32K.
var cold32K = []string{"T2D", "T3DIKJ", "T3DJIK", "DRADBG1", "DRADBG2", "DPSSF"}

// searchOp is one search: a catalog kernel at a size, against a cache, with
// a GA seed. Padding selects OptimizePaddingThenTiling (the Table-3
// treatment of the conflict-bound kernels).
type searchOp struct {
	Kernel  string
	Size    int64
	Cache   string
	Seed    uint64
	Padding bool
}

func (o searchOp) String() string {
	return fmt.Sprintf("%s/%d/%s/s%d", o.Kernel, o.Size, o.Cache, o.Seed)
}

// request is one POST /v1/tile of the serve workloads.
type request struct {
	Key  string // Idempotency-Key
	Body reqBody
}

// reqBody mirrors the tilingd request fields the benchmark sets.
type reqBody struct {
	Kernel         string `json:"kernel"`
	Size           int64  `json:"size"`
	Cache          string `json:"cache"`
	Mode           string `json:"mode,omitempty"`
	Seed           uint64 `json:"seed"`
	MaxEvaluations int    `json:"maxEvaluations,omitempty"`
	Islands        int    `json:"islands,omitempty"`
	Fidelity       int    `json:"fidelity,omitempty"`
}

func (b reqBody) op() searchOp {
	return searchOp{Kernel: b.Kernel, Size: b.Size, Cache: b.Cache, Seed: b.Seed}
}

func newRNG(workload string, seed uint64, salt uint64) *rand.Rand {
	h := uint64(0xcbf29ce484222325)
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return rand.New(rand.NewPCG(seed^h, salt*0x9e3779b97f4a7c15+1))
}

func kernelNames() []string {
	var out []string
	for _, k := range cmetiling.Kernels() {
		out = append(out, k.Name)
	}
	sort.Strings(out)
	return out
}

// drawOp is kernel at its size-th size against cache, with a seed-drawn
// GA seed.
func drawOp(rng *rand.Rand, kernel string, size int, cache string) searchOp {
	k, _ := cmetiling.GetKernel(kernel)
	return searchOp{
		Kernel:  kernel,
		Size:    kernelSizes[kernel][size%3],
		Cache:   cache,
		Seed:    rng.Uint64() >> 16,
		Padding: k.ConflictBound,
	}
}

// coldOps is the search-cold cycle, which the single caller walks
// repeatedly: every catalog kernel at its middle size on DM8K, the cold32K
// kernels at their middle size on DM32K, and each cheap kernel at all
// three sizes on DM8K. The ops, GA seeds included, are the same for every
// seed; the seed sets where the cycle starts. With seed-drawn GA
// seeds the mean replacement ratio of the returned tiles moved by a
// quarter from seed to seed, because for some GA seeds the search on
// T3DJIK/32/DM8K stays in the untiled basin (a 37% ratio against 0.5%);
// a fixed panel makes the quality metrics exact per program version.
func coldOps(seed uint64) []searchOp {
	rng := newRNG(wlSearchCold, 0, 1)
	var ops []searchOp
	for _, name := range kernelNames() {
		ops = append(ops, drawOp(rng, name, 1, "8k"))
	}
	for _, name := range cold32K {
		ops = append(ops, drawOp(rng, name, 1, "32k"))
	}
	for size := 0; size < 3; size++ {
		for _, name := range cheapKernels {
			ops = append(ops, drawOp(rng, name, size, "8k"))
		}
	}
	// Spread costly ops evenly: rank by cost and place rank r at the
	// fractional part of r times the golden ratio, plus a seed-drawn phase.
	// Any stretch of the cycle, including the partial cycle a window ends
	// in, then holds a representative mix of costs; with a plain shuffle
	// that last partial cycle moved p90 by a sixth from seed to seed.
	sort.SliceStable(ops, func(i, j int) bool { return weight(ops[i]) < weight(ops[j]) })
	phase := newRNG(wlSearchCold, seed, 1).Float64()
	pos := make([]float64, len(ops))
	rank := make([]int, len(ops))
	for r := range ops {
		pos[r] = math.Mod(float64(r)*0.6180339887498949+phase, 1)
		rank[r] = r
	}
	sort.Slice(rank, func(a, b int) bool { return pos[rank[a]] < pos[rank[b]] })
	cycle := make([]searchOp, len(ops))
	for i, r := range rank {
		cycle[i] = ops[r]
	}
	return cycle
}

// partition deals the catalog kernels, in name order, between n clients,
// so no two clients ever search the same kernel. The deal is the same for
// every seed: a seed-drawn deal changed how the costly kernels fell
// between the clients, and with it the throughput of the whole run.
func partition(n int) [][]string {
	out := make([][]string, n)
	for i, name := range kernelNames() {
		out[i%n] = append(out[i%n], name)
	}
	return out
}

// sessionCap is the maxEvaluations of a session's first request: about
// half of a converged search, so the capped and the uncapped request of a
// session cost about the same and the latency distribution stays one
// continuum instead of two clusters.
const sessionCap = 250

// sessionMix is the (mode, islands, fidelity) rotation across sessions.
var sessionMix = []struct {
	mode              string
	islands, fidelity int
}{
	{"tile", 1, 0}, {"order", 1, 0}, {"tile", 2, 0}, {"tile", 1, 3},
}

// serveSession is the n-th session of one serve-search client, on DM8K: a
// maxEvaluations-capped request over a fresh (kernel, size, seed) — the
// client's kernels in turn, each pass at the next of their three sizes —
// then the
// uncapped request, which recalls the first one's evaluations from the
// shared evaluation cache. Sessions never repeat, so every request is a
// real search.
func serveSession(seed uint64, client int, kernels []string, n int) [2]request {
	rng := newRNG(wlServeSearch, seed, uint64(1000+client)*1_000_003+uint64(n))
	op := drawOp(rng, kernels[n%len(kernels)], n/len(kernels), "8k")
	mix := sessionMix[n%len(sessionMix)]
	body := reqBody{Kernel: op.Kernel, Size: op.Size, Cache: op.Cache, Mode: mix.mode,
		Seed: op.Seed, Islands: mix.islands, Fidelity: mix.fidelity}
	capped := body
	capped.MaxEvaluations = sessionCap
	key := fmt.Sprintf("ss-%d-c%d-n%d", seed, client, n)
	return [2]request{{Key: key + "-capped", Body: capped}, {Key: key + "-full", Body: body}}
}

// warmPerClient is how many searches each serve-replay client answers in
// setup; the window only replays them.
const warmPerClient = 6

// replayWarm is the serve-replay warm set, answered during setup: per
// client, DM8K searches over its own share of the cheap kernels. The set
// is the same for every seed (the seed drives the op stream), so the
// tiles the window serves, and the quality metrics over them, do not
// move with the seed.
func replayWarm(nClients int) [][]request {
	out := make([][]request, nClients)
	for c := range out {
		for i := 0; i < warmPerClient; i++ {
			k := i*nClients + c
			name := cheapKernels[k%len(cheapKernels)]
			out[c] = append(out[c], request{
				Key:  fmt.Sprintf("sr-c%d-warm%d", c, i),
				Body: reqBody{Kernel: name, Size: kernelSizes[name][k%3], Cache: "8k", Seed: uint64(k + 1)},
			})
		}
	}
	return out
}

// replayOp is one serve-replay op: a read retries the warm request Warm's
// answered key; a write sends the same body under a fresh key.
type replayOp struct {
	Write bool
	Warm  int
	Key   string
}

// replayOpAt is op n of a serve-replay client's stream. Every block of
// three ops holds two reads and one write in a seed-drawn order, so reads
// are exactly two thirds of any stream prefix that ends on a block.
func replayOpAt(seed uint64, client, n int) replayOp {
	block := n / 3
	rng := newRNG(wlServeReplay, seed, uint64(2000+client)*1_000_003+uint64(block))
	writeSlot := rng.IntN(3)
	var warm [3]int
	for i := range warm {
		warm[i] = rng.IntN(warmPerClient)
	}
	op := replayOp{Write: n%3 == writeSlot, Warm: warm[n%3]}
	if op.Write {
		op.Key = fmt.Sprintf("sr-%d-c%d-w%d", seed, client, n)
	}
	return op
}
