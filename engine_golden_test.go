package cmetiling_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	cmetiling "repro"
)

// facadeGoldenDigests pin a search's result, every checkpoint it wrote
// and — at Islands <= 1, where the stream is deterministic — its full
// JSONL event stream. The MM and ADD entries were generated before the
// five GA searches were folded into one search skeleton; the catalog/*
// entries before the point solver took its innermost-run fast step; the
// */workers4* entries while every evaluation still split its sample
// points across the workers; the */fidelity3-workers4 entries while
// every fidelity rung still ran on one analyzer. The multilevel/* entries
// at Islands <= 1 were re-recorded when that search moved onto per-level
// analyzer pools and began counting pool hits and misses; only their
// counters line changed.
var facadeGoldenDigests = map[string]string{
	"catalog/ADD":                  "79f5dfd37fcaa792dadce8544a75de6ff43b8d4160ec8335f6f2629fc8fbde52",
	"catalog/ADI":                  "1ad9b16a460d396a7281041159e45fe3ad6ea06115eb2610e5b16a6c247b9638",
	"catalog/BTRIX":                "e1c7ff965e7d8744126650cd024d173d2b5eb0889cf8782485489e04dbc801f5",
	"catalog/DPSSB":                "c6884cc842bf15fbd1e51eb2ff6c8cd9e8e8ecb1c5463f76262cadff6dc23fa2",
	"catalog/DPSSF":                "7ea5f1449747fc0165f49b74d925bf81089730635a43e2934c49b7932b30f83e",
	"catalog/DRADBG1":              "cd8ed7b188995fa4e2d3a63387f59cb5f6edf1ddf78928aabb7a1e50ef71c0d7",
	"catalog/DRADBG2":              "32c0d0c0f539dc7d5a249245b6a3984d9b32646bd1d7262b472f7035b69ac963",
	"catalog/DRADFG1":              "60bbac32b210b8fea1c7e43312991a8fb7d112adff70fde76ba31f62faf64abb",
	"catalog/DRADFG2":              "31a88692ac42237a085d82abacb796162839a5ee0148dffedb57b96c2e33127f",
	"catalog/JACOBI3D":             "e860b56ef126f06ad90492bea5e50975f5470abe9ea6878f4a3f9476d027b0ff",
	"catalog/MATMUL":               "0c5360be4faea7b3abfa3b4ba7f083ec82b249a4e27bab342ab1847116c9cd0e",
	"catalog/MM":                   "131deba511b07db5d69b48a502f74074a8a0acde2150684fa106e56bd2e29290",
	"catalog/T2D":                  "137cd94aaff14f656159edda182eb0d854d80f8c43f9599613509abea5982d9a",
	"catalog/T3DIKJ":               "048bf553cd91908d9cd8e9920b36fa954fb1500fd4450f7db86a69ac90f961d7",
	"catalog/T3DJIK":               "0ba8fede0bf1ecb33ff063c2c3a18b2ef24859fefb14dcd8c6811a39bf895d67",
	"catalog/VPENTA1":              "78a36307cf848bc2c8843a9ae634d97a952388cd6a3cd9771ba8094bd1ae8117",
	"catalog/VPENTA2":              "39967205d531a1a0dbaec1e3555c3f0f3df4c05e4ffa472185f574f775ade528",
	"joint/base":                   "6dd540dc4453f60cee876bf740bf8aa2c6df47feed3d156575a475a4e8923088",
	"joint/budget41":               "b478cae87c2d01140246522a3c09510219fc05ea7831c25774c6a50ffbfab5ee",
	"joint/fidelity3":              "4414545f01e7664123bb8e344c359ec4bb2f987e933ba3275ccb3be12f8ea942",
	"joint/fidelity3-islands2":     "64d91efcb498b666fd25b9530e9a282eac3b92c2fbdad6bc3347f9b2e158398f",
	"joint/fidelity3-workers4":     "26f5034cbacea3588ba24ac31839418ac345c5e1c05e941f0bb90feed39ed195",
	"joint/islands1":               "6dd540dc4453f60cee876bf740bf8aa2c6df47feed3d156575a475a4e8923088",
	"joint/islands2":               "cbc94145b170b2ddfe01b0b138c88248b2db16609ed7b4ac43260317111449cb",
	"joint/sharedcache":            "6dd540dc4453f60cee876bf740bf8aa2c6df47feed3d156575a475a4e8923088",
	"joint/workers4":               "e899d47ebe7282411c98cf457aa76b1a533c17332cc234b55fda54d53f989682",
	"joint/workers4-budget41":      "f36426d4a2ca53c770e32788aa39b86a11ddd479ca6ac11cd20a3fcb286f0384",
	"multilevel/base":              "44e3026d07acbba1c05db86acf58e8c48cc343bf1996b91603423db96784c56f",
	"multilevel/budget41":          "bcffd4d7d340ab409236343c8de9953647b04bf006c01b232d78e90558607c52",
	"multilevel/islands1":          "44e3026d07acbba1c05db86acf58e8c48cc343bf1996b91603423db96784c56f",
	"multilevel/islands2":          "4bcb13e85422960b961926bc9de51541f3bc0c06acbdb8a19dfbdeeacc5bfc09",
	"multilevel/sharedcache":       "44e3026d07acbba1c05db86acf58e8c48cc343bf1996b91603423db96784c56f",
	"multilevel/workers4":          "55362f44e2611d26187b1ae74324947d2acc415b24cda06df19ad5e404092ada",
	"multilevel/workers4-budget41": "562eefddd5a41dac6734668d7fa8c3b2e99d36a9a3c37eff8e4fe97f5d373822",
	"order/base":                   "690d42195c7ff27f9d52f02ec4a03cda485e7c80404bd17b74e1af5caaa2baab",
	"order/budget41":               "0e5a2494e2993a417a9f9d1cf48050d83e3e5afcb461ca99eb2a237a675ba035",
	"order/fidelity3":              "ae3581f17b2bd5de7124fa3656dee20a079afcda38cc4c472fcbbd27bff8e992",
	"order/fidelity3-islands2":     "39b803112b85a0a7cff1cc89bc502963d85da4c0ca76f5f7cab2199dc6bd2884",
	"order/fidelity3-workers4":     "c786fd85199425c80463aba444f0cc4f4822929aa201483b4d2cc975e4b5149f",
	"order/islands1":               "690d42195c7ff27f9d52f02ec4a03cda485e7c80404bd17b74e1af5caaa2baab",
	"order/islands2":               "500e0231cc915afca5fa48e8e6e00698feadbc98c76783fc095ae34f635f8fe5",
	"order/sharedcache":            "ad7294b0b346364baa6a59cc2a7c83901afef6f033c8bf4ca3f2d70cde11065a",
	"order/workers4":               "a5126a7468f9df85944b93570933e5ed1f1562341a0a211888ab176648d46482",
	"order/workers4-budget41":      "204453dda362206076a58160ffd445c42f708981bf6e5b5b5153a000562c888f",
	"padding/base":                 "fbca6ca4484afcaaf5e3264a30319df096c2c792ff432f913df162262d59e477",
	"padding/budget41":             "557f7ca092f0e201314e0fe7dbeb40ca6993e4d24b4f62cf34978d80e66d2b21",
	"padding/fidelity3":            "4d84f0f745ad7ef76f29eda622ba99923d415ebc56951eadbeb1fd10f0f0236e",
	"padding/fidelity3-islands2":   "7f01ad55f112ea18ff5fbbc2424d415aad08e61756f8d80ce8562872927403d8",
	"padding/fidelity3-workers4":   "f71ab4498f8c6572f85c7428138c7fda0a674711865b0c7ee3ae1b88d820fb4c",
	"padding/islands1":             "fbca6ca4484afcaaf5e3264a30319df096c2c792ff432f913df162262d59e477",
	"padding/islands2":             "e356da70657aa1a0cd0ffc5dbe353120d6e98125a2eb1b7b3651c9bce4047858",
	"padding/sharedcache":          "fbca6ca4484afcaaf5e3264a30319df096c2c792ff432f913df162262d59e477",
	"padding/workers4":             "fb14aa4330be9e863d844cdd2763597c35b3516e205f5c67262e5c2d7e159ac6",
	"padding/workers4-budget41":    "8ca948c72dfa346f8f67115eadce8d8684b3f1408050004a4c82208cdaeb30b2",
	"padtile/base":                 "79f5dfd37fcaa792dadce8544a75de6ff43b8d4160ec8335f6f2629fc8fbde52",
	"padtile/budget41":             "8e9aae0e0beaea487480f07632e409f99a9cc3ca81ca7c98031157f708741664",
	"padtile/fidelity3":            "1c3c72e06e0c173a2579cb56802ce39b18eb2ca51991875a55d700a23e4d910f",
	"padtile/fidelity3-islands2":   "69599107b2c2529858b63ddf3e42f94279ee7471b7016a1c4b8d6082c8168e55",
	"padtile/fidelity3-workers4":   "c5ac073c2b9bf1bddd01dbf5be59ac8269a3244b37b78c8cc53b07c384cbfaff",
	"padtile/islands1":             "79f5dfd37fcaa792dadce8544a75de6ff43b8d4160ec8335f6f2629fc8fbde52",
	"padtile/islands2":             "885d7c2dea78a009e890902156dfa3cb5a99647d513e43faef2a07ab97b4f2ae",
	"padtile/sharedcache":          "05f7d08993f601222cb9cea05d8b05a0386297eec1e778b10e319371acd816d0",
	"padtile/workers4":             "86916df1acefb71b03d572e1cab3570178873b7992f43e3e08bdb0aa01bd011e",
	"padtile/workers4-budget41":    "2cae847939f7714738412a25620359ea4d2c62a75f58d4de58dd5579e24d15ef",
	"tiling/base":                  "500690e83a959edc7e9a67a3bb6c9f88b550271c009740067e279c0a05a6e8dc",
	"tiling/budget41":              "94fb06269c2a35459c3afc6dad50d5d10170922d32157447caa7bad64ae96842",
	"tiling/fidelity3":             "fcb868673c4302edf294bd1c56e67e5920ec07034a176d6c3bd82adcc2fbbf3f",
	"tiling/fidelity3-islands2":    "d898da01dd37e8ab0409e08d37e739ff9612c50b0383ce0277db1348e090f6dc",
	"tiling/fidelity3-workers4":    "ba7a05842ccbb94e1e393d883ff3f531c90d2f6935cefc9732062d7e60decfcf",
	"tiling/islands1":              "500690e83a959edc7e9a67a3bb6c9f88b550271c009740067e279c0a05a6e8dc",
	"tiling/islands2":              "2dc1e1a16c348ba0cc7ed13e2d2fb33128fd2aab72df98aade02c62f8d6db2ea",
	"tiling/sharedcache":           "f1b0bc75afdbdd49239701ecb7c208e8ca14b6018d5d2ac408114dd06c52507c",
	"tiling/workers4":              "310c67568ba92a47355f11192c3fbf3d854366aec6e972293a809b0773388f9f",
	"tiling/workers4-budget41":     "1bc7ac213cefed427089c39d9f49b8dc895302683e08ba646dd5d87bd918f299",
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestFacadeGolden runs every GA search of the facade under each runtime
// knob, and one search per catalog kernel, and compares digests of
// everything they produced against values recorded from an earlier
// implementation.
func TestFacadeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are amd64-specific: other architectures may fuse a*x+b in the GA's fitness scaling")
	}
	if raceEnabled {
		// The race detector slows the 74 searches to minutes and cannot
		// change a value; the island suites cover the concurrent paths.
		t.Skip("values are checked by the non-race run")
	}
	instance := func(name string, size int64) *cmetiling.Nest {
		k, ok := cmetiling.GetKernel(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}
		nest, err := k.Instance(size)
		if err != nil {
			t.Fatal(err)
		}
		return nest
	}
	mm, add := instance("MM", 40), instance("ADD", 0)
	levels := []cmetiling.Level{
		{Cache: cmetiling.DM8K, MissPenalty: 10},
		{Cache: cmetiling.DM32K, MissPenalty: 100},
	}
	ctx := context.Background()
	searches := []struct {
		name       string
		multiLevel bool
		run        func(cmetiling.Options) (any, error)
	}{
		{"tiling", false, func(o cmetiling.Options) (any, error) { return cmetiling.OptimizeTiling(ctx, mm, o) }},
		{"order", false, func(o cmetiling.Options) (any, error) { return cmetiling.OptimizeTilingOrder(ctx, mm, o) }},
		{"multilevel", true, func(o cmetiling.Options) (any, error) {
			return cmetiling.OptimizeTilingMultiLevel(ctx, mm, levels, o)
		}},
		{"padding", false, func(o cmetiling.Options) (any, error) { return cmetiling.OptimizePadding(ctx, add, o) }},
		{"padtile", false, func(o cmetiling.Options) (any, error) { return cmetiling.OptimizePaddingThenTiling(ctx, add, o) }},
		{"joint", false, func(o cmetiling.Options) (any, error) { return cmetiling.OptimizeJoint(ctx, add, o) }},
	}
	variants := []struct {
		name string
		mut  func(*cmetiling.Options)
	}{
		{"base", func(*cmetiling.Options) {}},
		{"islands1", func(o *cmetiling.Options) { o.Islands = 1 }},
		{"islands2", func(o *cmetiling.Options) { o.Islands = 2 }},
		{"fidelity3", func(o *cmetiling.Options) { o.Fidelity = cmetiling.Fidelity{Rungs: 3} }},
		{"fidelity3-islands2", func(o *cmetiling.Options) {
			o.Fidelity = cmetiling.Fidelity{Rungs: 3}
			o.Islands = 2
		}},
		{"fidelity3-workers4", func(o *cmetiling.Options) {
			o.Fidelity = cmetiling.Fidelity{Rungs: 3}
			o.Workers = 4
		}},
		{"budget41", func(o *cmetiling.Options) { o.MaxEvaluations = 41 }},
		{"sharedcache", func(o *cmetiling.Options) { o.SharedCache = cmetiling.NewEvalCache(cmetiling.EvalCacheConfig{}) }},
		{"workers4", func(o *cmetiling.Options) { o.Workers = 4 }},
		{"workers4-budget41", func(o *cmetiling.Options) {
			o.Workers = 4
			o.MaxEvaluations = 41
		}},
	}
	got := map[string]string{}
	digest := func(name string, opt cmetiling.Options, run func(cmetiling.Options) (any, error)) {
		var stream bytes.Buffer
		sink := cmetiling.NewJSONLSink(&stream)
		opt.Observer = sink
		var snaps [][]byte
		opt.Checkpoint = func(c *cmetiling.Checkpoint) error {
			var buf bytes.Buffer
			if err := cmetiling.WriteCheckpoint(&buf, c); err != nil {
				return err
			}
			snaps = append(snaps, buf.Bytes())
			return nil
		}
		res, err := run(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("%s: closing sink: %v", name, err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshalling result: %v", name, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "result %s\n", resJSON)
		for _, snap := range snaps {
			fmt.Fprintf(h, "checkpoint %s\n", snap)
		}
		if opt.Islands <= 1 {
			fmt.Fprintf(h, "events\n%s", stream.Bytes())
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	baseOptions := cmetiling.Options{Cache: cmetiling.DM8K, Seed: 7, SamplePoints: 64, Workers: 1}
	for _, s := range searches {
		for _, v := range variants {
			opt := baseOptions
			v.mut(&opt)
			if s.multiLevel && opt.Fidelity.Enabled() {
				continue // the multi-level search rejects fidelity
			}
			digest(s.name+"/"+v.name, opt, s.run)
		}
	}
	// The catalog work gate: one base search per Table-1 kernel at its
	// smallest size, with the treatment perfbench gives it. The event
	// stream carries evaluations, sampled points, walk steps and
	// classified accesses, so a change that alters the work a search does
	// on any kernel changes its digest.
	for _, k := range cmetiling.Kernels() {
		size := k.DefaultSize
		for _, n := range k.Sizes {
			size = min(size, n)
		}
		nest := instance(k.Name, size)
		run := func(o cmetiling.Options) (any, error) { return cmetiling.OptimizeTiling(ctx, nest, o) }
		if k.ConflictBound {
			run = func(o cmetiling.Options) (any, error) { return cmetiling.OptimizePaddingThenTiling(ctx, nest, o) }
		}
		digest("catalog/"+k.Name, baseOptions, run)
	}
	var diff []string
	for name, d := range got {
		if facadeGoldenDigests[name] != d {
			diff = append(diff, fmt.Sprintf("\t%q: %q,", name, d))
		}
	}
	if len(diff) > 0 || len(got) != len(facadeGoldenDigests) {
		sort.Strings(diff)
		t.Fatalf("%d of %d search digests changed (want %d entries):\n%s",
			len(diff), len(got), len(facadeGoldenDigests), strings.Join(diff, "\n"))
	}
}
