package ga

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// fakePoints is the size of the fake evaluation sample the fidelity
// configurations rank on.
const fakePoints = 24

// rangeCost is a deterministic objective over a fakePoints-point
// "sample": point i of a candidate costs |v[i mod len(v)] - 17| plus a
// small position-dependent term, so coarse ranges rank candidates roughly
// like the whole sample does. It sums the points r covers; the zero Rung
// covers them all.
func rangeCost(v []int64, r Rung) float64 {
	if r == (Rung{}) {
		r.Hi = fakePoints
	}
	sum := 0.0
	for i := r.Lo; i < r.Hi; i++ {
		d := v[i%len(v)] - 17
		if d < 0 {
			d = -d
		}
		sum += float64(d + int64(i*7%5))
	}
	return sum
}

// rangeBatch is a BatchEvaluator that scores rangeCost one candidate at a
// time on the calling goroutine.
type rangeBatch struct{ values []float64 }

// rangeBatches gives every deme its own rangeBatch.
func rangeBatches(int) BatchEvaluator { return &rangeBatch{} }

func (b *rangeBatch) Evaluate(_ context.Context, values [][]int64, r Rung) {
	b.values = b.values[:0]
	for _, v := range values {
		b.values = append(b.values, rangeCost(v, r))
	}
}

func (b *rangeBatch) Commit(i int) (float64, bool) { return b.values[i], false }

// streamRecorder keeps every event and counter delta in arrival order,
// with the wall-clock Elapsed field zeroed so the stream is comparable
// across runs.
type streamRecorder struct {
	lines  []string
	totals telemetry.Counters
}

func (r *streamRecorder) Event(e telemetry.Event) {
	if g, ok := e.(telemetry.GenerationDone); ok {
		g.Elapsed = 0
		e = g
	}
	r.lines = append(r.lines, fmt.Sprintf("E %T%+v", e, e))
}

func (r *streamRecorder) Add(d telemetry.Counters) {
	r.lines = append(r.lines, fmt.Sprintf("C %+v", d))
	r.totals = r.totals.Plus(d)
}

// goldenConfigs are the engine configurations whose output is pinned by
// TestEngineGolden. Each builder returns a fresh Config, so no run
// shares state with another.
var goldenConfigs = []struct {
	name string
	mk   func() Config
}{
	{"paper", func() Config { return PaperConfig(42) }},
	{"budget37", func() Config { c := PaperConfig(42); c.MaxEvaluations = 37; return c }},
	{"budget3", func() Config { c := PaperConfig(42); c.MaxEvaluations = 3; return c }},
	{"seeds35", func() Config {
		c := PaperConfig(42)
		for i := int64(0); i < 35; i++ {
			c.SeedValues = append(c.SeedValues, []int64{i % 64, i * 7 % 64, i * 13 % 64})
		}
		return c
	}},
	{"fidelity3", func() Config {
		c := PaperConfig(42)
		c.Fidelity, c.Batch, c.Points = Fidelity{Rungs: 3}, rangeBatches, fakePoints
		return c
	}},
	{"fidelity3-budget45", func() Config {
		c := PaperConfig(42)
		c.Fidelity, c.Batch, c.Points = Fidelity{Rungs: 3}, rangeBatches, fakePoints
		c.MaxEvaluations = 45
		return c
	}},
	{"uniform31", func() Config {
		c := PaperConfig(42)
		c.Crossover = Uniform
		c.PopSize = 31
		return c
	}},
}

// goldenDigests were generated before the single-population loop and
// the island runtime were merged into one deme engine. They pin every
// observable output of Run: the Result, every checkpoint's bytes, the
// counter totals and — at Islands <= 1 — the full event stream. The
// fidelity3/* entries and fidelity3-budget45/islands2 and islands3 were
// re-recorded when the ladder began counting memo hits as the classic
// loop does; only memo-hit counts changed.
var goldenDigests = map[string]string{
	"budget3/islands0":            "07e160270d84263ad61cd7577dc1a2aadff34daed3fb89f5b45815d55e2d17e9",
	"budget3/islands1":            "07e160270d84263ad61cd7577dc1a2aadff34daed3fb89f5b45815d55e2d17e9",
	"budget3/islands2":            "0a8f2466eee7a52ff6a3e21a958f13ec388a58824580c4b9b0a537125ac08666",
	"budget3/islands3":            "7b664e94e46215f1a97b66efb830ee3a1f8641312448b9f460856491fbeeb37c",
	"budget37/islands0":           "e89e249bd6bf3982e06ae563c60ba3e7e91deeacf0814a3984f8a12be5f7ef5c",
	"budget37/islands1":           "e89e249bd6bf3982e06ae563c60ba3e7e91deeacf0814a3984f8a12be5f7ef5c",
	"budget37/islands2":           "4cc9e1c16028383e6ddf9eff665d558b2820b8f945a22636650f5171dd8531af",
	"budget37/islands3":           "cd4d26088b3da8516d3694fee105983c75c2ebebfd49d6dd09067bc9a96af8ec",
	"fidelity3-budget45/islands0": "707a36fce9710b7115db3e6fe9915ba30ad92c7d0fdb7dc49e583545d6f0729a",
	"fidelity3-budget45/islands1": "707a36fce9710b7115db3e6fe9915ba30ad92c7d0fdb7dc49e583545d6f0729a",
	"fidelity3-budget45/islands2": "bc0f2d04924e40d9b0af7d4ba7a50cf0400047a998353550ff6893945d946cbd",
	"fidelity3-budget45/islands3": "1d0efed1c4dcdfb740386fb307cf17ec5dac4082e93baf691e4a7007b67cce52",
	"fidelity3/islands0":          "c5716f54665074fc37244ffd71cd0115942223523921ad7690f6b2f715ed416e",
	"fidelity3/islands1":          "c5716f54665074fc37244ffd71cd0115942223523921ad7690f6b2f715ed416e",
	"fidelity3/islands2":          "e9f6a89f1378941bbb978b47ef865a3ddb6d12656ddfbb50bf70fc21e101e8b9",
	"fidelity3/islands3":          "6bec05602c4c7e2929e45ad46c42613b53767da9a6d567b1eacb7ccfd53bb195",
	"paper/islands0":              "545178825cfbe6644a1b7f6583ca6e88a7ae5e50e88e30772fe5bab1bb942bcc",
	"paper/islands1":              "545178825cfbe6644a1b7f6583ca6e88a7ae5e50e88e30772fe5bab1bb942bcc",
	"paper/islands2":              "b85b43b763d746b2a1b3f122ae8695d82a05bd43cb9700c25c2788e49ac84242",
	"paper/islands3":              "6bb816ed1e990914e4b59593db3e8bb89092d84897f098481cb7a3d434cfa92f",
	"seeds35/islands0":            "ab44fa6f315acd8bf66a1272c3c0fe4d4cda76484d4db57c97e684167fb934b1",
	"seeds35/islands1":            "ab44fa6f315acd8bf66a1272c3c0fe4d4cda76484d4db57c97e684167fb934b1",
	"seeds35/islands2":            "fdb65d9999aeb71e349dce051380dd4e7ec6c0a5f94abc673bbbc17eacdfc1ed",
	"seeds35/islands3":            "fe683b8347b6798d57d2790574af8392f44140d446ebab3b5d30851d6c00aae8",
	"uniform31/islands0":          "f03ef5205151dc0cc02ca7a89516ceedcdcbdd8a9e8f179cd7bd6b1488e9c6c1",
	"uniform31/islands1":          "f03ef5205151dc0cc02ca7a89516ceedcdcbdd8a9e8f179cd7bd6b1488e9c6c1",
	"uniform31/islands2":          "093b2bd65a1c7901ca28c376ca9e8ae22c938a03329ee4ee2c95760466212ca1",
	"uniform31/islands3":          "74bcd1511d43e5de509519d3a57880fb1901e6b8c2267c7e85ec35aa72670691",
}

// TestEngineGolden pins the engine's output against digests recorded
// from an earlier implementation, so a change that every code path
// shares still shows up. It also resumes every written snapshot and
// requires the uninterrupted result back.
func TestEngineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64-specific: other architectures may fuse a*x+b in selectRSS's fitness scaling")
	}
	got := map[string]string{}
	for _, islands := range []int{0, 1, 2, 3} {
		for _, gc := range goldenConfigs {
			name := fmt.Sprintf("%s/islands%d", gc.name, islands)
			cfg := gc.mk()
			cfg.Islands = islands
			cfg.Label = "golden"
			var rec streamRecorder
			var snaps [][]byte
			cfg.Observer = &rec
			cfg.Checkpoint = func(c *Checkpoint) error {
				var buf bytes.Buffer
				if err := WriteCheckpoint(&buf, c); err != nil {
					return err
				}
				snaps = append(snaps, buf.Bytes())
				return nil
			}
			res, err := Run(context.Background(), sphereSpec(), sphereObj, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			resJSON, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s: marshalling result: %v", name, err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "result %s\n", resJSON)
			for _, s := range snaps {
				fmt.Fprintf(h, "checkpoint %s\n", s)
			}
			fmt.Fprintf(h, "counters %+v\n", rec.totals)
			if islands <= 1 {
				fmt.Fprintf(h, "events\n%s\n", strings.Join(rec.lines, "\n"))
			}
			got[name] = hex.EncodeToString(h.Sum(nil))

			want := res
			want.Warnings = nil // a resumed run reports no seeding warnings
			for i, s := range snaps {
				cp, err := ReadCheckpoint(bytes.NewReader(s))
				if err != nil {
					t.Fatalf("%s: reading snapshot %d: %v", name, i, err)
				}
				rcfg := gc.mk()
				rcfg.Islands = islands
				rcfg.Label = "golden"
				rcfg.ResumeFrom = cp
				r, err := Run(context.Background(), sphereSpec(), sphereObj, rcfg)
				if err != nil {
					t.Fatalf("%s: resume from snapshot %d: %v", name, i, err)
				}
				if !reflect.DeepEqual(r, want) {
					t.Fatalf("%s: resume from snapshot %d diverged:\n got %+v\nwant %+v", name, i, r, want)
				}
			}
		}
	}
	var diff []string
	for name, d := range got {
		if goldenDigests[name] != d {
			diff = append(diff, fmt.Sprintf("\t%q: %q,", name, d))
		}
	}
	if len(diff) > 0 || len(got) != len(goldenDigests) {
		sort.Strings(diff)
		t.Fatalf("%d of %d engine digests changed (want %d entries):\n%s",
			len(diff), len(got), len(goldenDigests), strings.Join(diff, "\n"))
	}
}
