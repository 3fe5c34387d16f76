package server

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzNormalize feeds arbitrary request bodies through the JSON decoder
// and normalize. Neither may panic, and a request normalize accepts must
// be ready to run: a 64-hex-digit cache key, a built nest, and search
// options that Validate accepts.
func FuzzNormalize(f *testing.F) {
	src := "array a(64,64) real8\narray b(64,64) real8\ndo i = 1, 64\n  do j = 1, 64\n    read a(i, j)\n    write b(j, i)\n  end\nend\n"
	inline, err := json.Marshal(TileRequest{Source: src, Cache: "8k", Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range []string{
		fastRequest,
		string(inline),
		`{"kernel":"T2D","size":100,"cache":"8192:32:2","mode":"order","islands":2,"fidelity":3,"workers":2}`,
		fmt.Sprintf(`{"kernel":"ADD","cache":"32k","samplePoints":%d}`, maxSamplePoints),
	} {
		f.Add([]byte(body))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req TileRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		n, err := s.normalize(req)
		if err != nil {
			return
		}
		if _, herr := hex.DecodeString(n.key); len(n.key) != 64 || herr != nil {
			t.Fatalf("accepted %s with cache key %q", body, n.key)
		}
		if n.nest == nil {
			t.Fatalf("accepted %s without a nest", body)
		}
		if err := n.options(s).Validate(); err != nil {
			t.Fatalf("accepted %s with invalid options: %v", body, err)
		}
	})
}
