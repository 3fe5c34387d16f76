// Command benchjson converts `go test -bench` output into a JSON file,
// keeping custom ReportMetric values alongside ns/op, B/op and allocs/op.
//
// It reads the benchmark output on stdin. With -out the input is echoed to
// stdout unchanged (so the run stays visible in the terminal) and the JSON
// is written to the file; without -out the JSON goes to stdout.
//
//	go test -run '^$' -bench 'Classify' -benchmem . | benchjson -out BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted JSON document.
type Report struct {
	GeneratedAt string      `json:"generated_at"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos,omitempty"`
	GOARCH      string      `json:"goarch,omitempty"`
	CPU         string      `json:"cpu,omitempty"`
	Pkg         string      `json:"pkg,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

// parseLine parses one "BenchmarkName-P  N  v1 u1  v2 u2 ..." line,
// returning ok=false for lines that are not benchmark results.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the trailing -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		return Benchmark{}, false
	}
	return b, true
}

func main() {
	out := flag.String("out", "", "write JSON to this file and echo stdin to stdout; empty = JSON to stdout")
	version := cliutil.VersionFlag()
	flag.Parse()
	cliutil.HandleVersion("benchjson", version)

	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	echo := *out != ""
	for sc.Scan() {
		line := sc.Text()
		if echo {
			fmt.Println(line)
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			if b, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading stdin:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines found on stdin")
		os.Exit(1)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
