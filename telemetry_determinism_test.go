package cmetiling_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"testing"

	cmetiling "repro"
)

// traceSearch runs OptimizeTiling with a JSONL sink attached and returns
// the raw byte stream the sink produced (events plus the final counters
// line written by Close).
func traceSearch(t *testing.T, kernel string, size int64) []byte {
	t.Helper()
	k, ok := cmetiling.GetKernel(kernel)
	if !ok {
		t.Fatalf("unknown kernel %q", kernel)
	}
	nest, err := k.Instance(size)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := cmetiling.NewJSONLSink(&buf)
	opt := cmetiling.Options{
		Cache:        cmetiling.DM8K,
		Seed:         7,
		SamplePoints: 64,
		Workers:      1,
		Observer:     sink,
	}
	if _, err := cmetiling.OptimizeTiling(context.Background(), nest, opt); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLStreamDeterministic: with a fixed seed, Workers=1, and
// timestamps off (the default), the full JSONL event stream of a search
// is byte-for-byte reproducible. This is the golden property that makes
// -trace-out files diffable across runs.
func TestJSONLStreamDeterministic(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		size   int64
	}{
		{"MM", 40},
		{"ADD", 0},
	} {
		t.Run(fmt.Sprintf("%s_%d", tc.kernel, tc.size), func(t *testing.T) {
			a := traceSearch(t, tc.kernel, tc.size)
			b := traceSearch(t, tc.kernel, tc.size)
			if !bytes.Equal(a, b) {
				t.Fatalf("JSONL stream not deterministic:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
			}
			checkStreamSchema(t, a)
		})
	}
}

// checkStreamSchema validates the wire contract of a complete stream:
// every line is a standalone JSON object whose first field is the "ev"
// discriminator, the stream opens with search_start, closes with the
// counters line, and contains a search_stop just before it.
func checkStreamSchema(t *testing.T, stream []byte) {
	t.Helper()
	lines := bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("stream has only %d lines:\n%s", len(lines), stream)
	}
	kinds := make([]string, len(lines))
	for i, line := range lines {
		if !bytes.HasPrefix(line, []byte(`{"ev":"`)) {
			t.Fatalf("line %d does not lead with the ev discriminator: %s", i, line)
		}
		var obj struct {
			Ev string `json:"ev"`
		}
		if err := json.Unmarshal(line, &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		kinds[i] = obj.Ev
	}
	if kinds[0] != "search_start" {
		t.Errorf("first event is %q, want search_start", kinds[0])
	}
	if kinds[len(kinds)-1] != "counters" {
		t.Errorf("last line is %q, want counters", kinds[len(kinds)-1])
	}
	if kinds[len(kinds)-2] != "search_stop" {
		t.Errorf("penultimate event is %q, want search_stop", kinds[len(kinds)-2])
	}
	var gens, batches int
	for _, k := range kinds {
		switch k {
		case "generation":
			gens++
		case "evaluation_batch":
			batches++
		}
	}
	if gens == 0 {
		t.Error("stream has no generation events")
	}
	if batches == 0 {
		t.Error("stream has no evaluation_batch events")
	}
}

// TestJSONLStreamWorkerInvariantCounters: the whole JSONL stream, the
// counters line included, does not depend on the worker count. A
// generation's candidates are classified concurrently, one per analyzer,
// but their events reach the observer in batch order, so only
// search_start's workers field tells the streams apart. The padded nests
// of a padding-then-tiling search rebuild one worker's analyzer per
// candidate; with a shared cache, a candidate whose tile an earlier one
// of its generation already scored recalls that one's statistics.
func TestJSONLStreamWorkerInvariantCounters(t *testing.T) {
	workersField := regexp.MustCompile(`"workers":\d+`)
	for _, tc := range []struct {
		kernel  string
		size    int64
		padTile bool
		shared  bool
	}{
		{"MM", 40, false, false},
		{"ADD", 0, true, false},
		{"MM", 40, false, true},
	} {
		t.Run(fmt.Sprintf("%s_%d_shared=%v", tc.kernel, tc.size, tc.shared), func(t *testing.T) {
			stream := func(workers int) []byte {
				k, _ := cmetiling.GetKernel(tc.kernel)
				nest, err := k.Instance(tc.size)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				sink := cmetiling.NewJSONLSink(&buf)
				opt := cmetiling.Options{
					Cache: cmetiling.DM8K, Seed: 7, SamplePoints: 64,
					Workers: workers, Observer: sink,
				}
				if tc.shared {
					opt.SharedCache = cmetiling.NewEvalCache(cmetiling.EvalCacheConfig{})
				}
				if tc.padTile {
					_, err = cmetiling.OptimizePaddingThenTiling(context.Background(), nest, opt)
				} else {
					_, err = cmetiling.OptimizeTiling(context.Background(), nest, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := sink.Close(); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(buf.Bytes(), []byte("\n"))
				for i, line := range lines {
					if bytes.HasPrefix(line, []byte(`{"ev":"search_start"`)) {
						lines[i] = workersField.ReplaceAll(line, []byte(`"workers":0`))
					}
				}
				return bytes.Join(lines, []byte("\n"))
			}
			serial, parallel := stream(1), stream(4)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("streams differ across worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
			}
		})
	}
}
