package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestOpListsArePureFunctionsOfWorkloadAndSeed(t *testing.T) {
	if !reflect.DeepEqual(coldOps(7), coldOps(7)) {
		t.Fatal("coldOps(7) differs between calls")
	}
	if reflect.DeepEqual(coldOps(7), coldOps(8)) {
		t.Fatal("coldOps ignores the seed")
	}
	parts := partition(2)
	for n := 0; n < 50; n++ {
		if serveSession(7, 1, parts[1], n) != serveSession(7, 1, parts[1], n) {
			t.Fatalf("serveSession(n=%d) differs between calls", n)
		}
		if replayOpAt(7, 0, n) != replayOpAt(7, 0, n) {
			t.Fatalf("replayOpAt(n=%d) differs between calls", n)
		}
	}
	if !reflect.DeepEqual(replayWarm(2), replayWarm(2)) {
		t.Fatal("replayWarm differs between calls")
	}
}

func TestColdCycleCoversTheCatalog(t *testing.T) {
	ops := coldOps(3)
	seen := map[string]map[string]bool{}
	for _, op := range ops {
		if seen[op.Kernel] == nil {
			seen[op.Kernel] = map[string]bool{}
		}
		seen[op.Kernel][op.Cache] = true
		if s := kernelSizes[op.Kernel]; op.Size != s[0] && op.Size != s[1] && op.Size != s[2] {
			t.Errorf("%s size %d is none of %v", op.Kernel, op.Size, s)
		}
	}
	for _, name := range kernelNames() {
		if !seen[name]["8k"] {
			t.Errorf("kernel %s missing on DM8K", name)
		}
	}
	for _, name := range cold32K {
		if !seen[name]["32k"] {
			t.Errorf("kernel %s missing on DM32K", name)
		}
	}
}

func TestColdCycleSpreadsCostEvenly(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ops := coldOps(seed)
		var total float64
		for _, op := range ops {
			total += weight(op)
		}
		avg := total / float64(len(ops))
		// A window ends somewhere in a partial cycle: every stretch of a
		// quarter cycle or more must cost within 20% of the average.
		for start := 0; start < len(ops); start++ {
			for n := len(ops) / 4; n <= len(ops); n += len(ops) / 4 {
				var sum float64
				for i := 0; i < n; i++ {
					sum += weight(ops[(start+i)%len(ops)])
				}
				if got := sum / float64(n); got < 0.8*avg || got > 1.2*avg {
					t.Fatalf("seed %d: %d ops from %d cost %.2f on average, cycle %.2f", seed, n, start, got, avg)
				}
			}
		}
	}
}

func TestServeSearchPartitionsKernelsBetweenClients(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		parts := partition(2)
		owner := map[string]int{}
		for c, names := range parts {
			for _, name := range names {
				if prev, dup := owner[name]; dup {
					t.Fatalf("seed %d: kernel %s dealt to clients %d and %d", seed, name, prev, c)
				}
				owner[name] = c
			}
		}
		if len(owner) != len(kernelNames()) {
			t.Fatalf("seed %d: %d kernels dealt, catalog has %d", seed, len(owner), len(kernelNames()))
		}
		keys := map[string]bool{}
		for c := range parts {
			for n := 0; n < 40; n++ {
				for _, r := range serveSession(seed, c, parts[c], n) {
					if owner[r.Body.Kernel] != c {
						t.Fatalf("seed %d: client %d requested %s, owned by client %d", seed, c, r.Body.Kernel, owner[r.Body.Kernel])
					}
					if keys[r.Key] {
						t.Fatalf("seed %d: idempotency key %s reused", seed, r.Key)
					}
					keys[r.Key] = true
				}
			}
		}
	}
}

func TestServeReplayKeepsReadWriteShares(t *testing.T) {
	const blocks = 500
	for c := 0; c < 2; c++ {
		reads, writes := 0, 0
		keys := map[string]bool{}
		for n := 0; n < 3*blocks; n++ {
			op := replayOpAt(11, c, n)
			if op.Warm < 0 || op.Warm >= warmPerClient {
				t.Fatalf("op %d replays warm request %d of %d", n, op.Warm, warmPerClient)
			}
			if !op.Write {
				reads++
				continue
			}
			writes++
			if keys[op.Key] {
				t.Fatalf("write key %s reused", op.Key)
			}
			keys[op.Key] = true
		}
		if reads != 2*blocks || writes != blocks {
			t.Fatalf("client %d: %d reads and %d writes in %d ops, want 2:1", c, reads, writes, 3*blocks)
		}
	}
}

func TestPercentileNeedsTenSamplesAboveIt(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 over 99 samples leaves 9 above it and must be refused")
	}
	xs = append(xs, 100)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 over 100 samples: %v", err)
	}
	if p90 != 90 || tailAbove(len(xs), 0.9) != 10 {
		t.Fatalf("p90 = %v with %d above, want 90 with 10", p90, tailAbove(len(xs), 0.9))
	}
	if p50, _ := percentile(xs, 0.5); p50 != 50 {
		t.Fatalf("p50 = %v, want 50", p50)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10-40 plus 90-100)", got)
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", names, endToEnd)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, benchmark prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
