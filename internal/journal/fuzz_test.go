package journal

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay writes arbitrary bytes as a segment file and replays it.
// Replay's contract is that record-level damage never fails it: it must
// return no error and not panic, and every non-blank line it cannot
// decode must be counted on State.Skipped, while every line it can decode
// is applied.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: OpAccepted, Key: "a", CacheKey: "cache-a", Request: []byte(`{"kernel":"MM","size":48}`)},
		{Op: OpStarted, Key: "a"},
		{Op: OpCheckpointed, Key: "a", Checkpoint: "a.ckpt", Gen: 3},
		{Op: OpDone, Key: "a", Response: []byte(`{"tile":[8,8]}`), Outcome: "ok"},
		{Op: OpAccepted, Key: "b", CacheKey: "cache-b"},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	segs, _ := segments(dir)
	valid, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-17])
	f.Add(bytes.Replace(valid, []byte(`"op"`), []byte(`"oq"`), 1))
	f.Add([]byte("{\"crc\":\"00000000\",\"rec\":{}}\n\r\n \n{"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Replay(dir, Options{})
		if err != nil {
			t.Fatalf("Replay failed on a damaged segment: %v", err)
		}
		lines, bad := 0, 0
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 64<<10), maxRecordBytes)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			lines++
			if _, cause := decodeFrame(sc.Bytes()); cause != "" {
				bad++
			}
		}
		if st.Skipped != bad {
			t.Fatalf("Skipped = %d, want the %d undecodable of %d lines", st.Skipped, bad, lines)
		}
		if len(st.Entries) > lines-bad {
			t.Fatalf("%d entries from %d readable lines", len(st.Entries), lines-bad)
		}
	})
}
