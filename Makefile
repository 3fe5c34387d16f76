# Development targets. `make verify` is the tier-1 gate every change must
# keep green: vet, full build, the golden work digests, and the test suite
# under the race detector (the search runtime fans evaluation out across
# goroutines, so races are first-class failures here).

GO ?= go

.PHONY: verify build test vet fmt race golden fuzz bench-json depcheck chaos lint serve-smoke islands workers crash-chaos perfbench

verify: fmt vet build perfbench depcheck lint golden race chaos islands workers crash-chaos

# Formatting gate: fails when gofmt would rewrite any tracked Go file.
# Listing tracked files keeps the benchmark's build directory
# (.bench_build/, which holds a Go module cache) out; outside a git
# checkout the same tree is found with find. gofmt reads stdin when given
# no file, hence the </dev/null.
fmt:
	@files=$$(git ls-files '*.go' 2>/dev/null) || files=$$(find . -path ./.bench_build -prune -o -name '*.go' -print); \
	bad=$$(gofmt -l $$files </dev/null); \
	if [ -n "$$bad" ]; then \
		echo "fmt: gofmt would reformat:"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "fmt: ok"

# Static analysis beyond vet. Both tools are optional: they are skipped
# with a note when not installed (the container image does not bake them
# in), and govulncheck needs network access for its vuln DB, so its
# failure is reported but never fails the build.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "lint: govulncheck reported issues (not fatal)"; \
	else \
		echo "lint: govulncheck not installed, skipping"; \
	fi

# End-to-end service check: build tilingd, start it on a free port, issue
# a health probe and a real tiling request, then SIGTERM and assert a
# clean drained exit.
serve-smoke:
	./scripts/serve_smoke.sh

vet:
	$(GO) vet ./...

# Layering rules. Telemetry: internal packages may depend on the
# internal/telemetry interface, but only the facade (root package) wires
# concrete sinks. An internal package importing internal/telemetry/sinks
# breaks the nil-observer zero-cost contract and fails here. Evalcache:
# the shared evaluation cache holds values, never solver state, so
# internal/evalcache importing internal/cme fails here too. Polyhedra:
# constraint systems are how the equation generator writes CMEs, and no
# miss is decided from them, so only internal/cme may import
# internal/polyhedra. Evaluation: a search classifies each candidate whole
# on one analyzer and fans out only by cohort and island, so no non-test
# file of internal/core may call sampling's point-chunked EvaluateWith.
# Faults: EvaluateObserved draws no entry faults (its caller, core's
# evaluator.classify, draws them), so no non-test file outside
# internal/core may call it. Shared cache: searches recall and store
# evaluation work in the stats tier alone, so no non-test file of this
# module may call evalcache's GetFitness or PutFitness (perfbench, a
# module of its own, still times them in its layer replay).
depcheck:
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./internal/... | grep -E ' repro/internal/telemetry/sinks( |$$)' || true); \
	if [ -n "$$bad" ]; then \
		echo "depcheck: internal packages must not import telemetry sinks (only the facade may):"; \
		echo "$$bad"; exit 1; \
	fi
	@if $(GO) list -f '{{join .Imports " "}}' ./internal/evalcache | grep -qE '(^| )repro/internal/cme( |$$)'; then \
		echo "depcheck: internal/evalcache must not import internal/cme (the shared cache holds values, not analyzers)"; \
		exit 1; \
	fi
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}}' ./... | grep -E ' repro/internal/polyhedra( |$$)' | grep -v '^repro/internal/cme: ' || true); \
	if [ -n "$$bad" ]; then \
		echo "depcheck: only internal/cme may import internal/polyhedra (constraint systems stay inside equation generation):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(cd internal/core && grep -nE '\.EvaluateWith\(' $$($(GO) list -f '{{join .GoFiles " "}}' .) || true); \
	if [ -n "$$bad" ]; then \
		echo "depcheck: internal/core must not call sampling.EvaluateWith (a search evaluates each candidate on one analyzer):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -f '{{if ne .ImportPath "repro/internal/core"}}{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}{{end}}' ./... | xargs grep -nE '\.EvaluateObserved\(' || true); \
	if [ -n "$$bad" ]; then \
		echo "depcheck: only internal/core may call sampling's EvaluateObserved (it draws no entry faults, so a caller elsewhere would skip the fault plan):"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$($(GO) list -f '{{$$d := .Dir}}{{range .GoFiles}}{{$$d}}/{{.}} {{end}}' ./... | xargs grep -nE '\.(Get|Put)Fitness\(' || true); \
	if [ -n "$$bad" ]; then \
		echo "depcheck: no search may call evalcache's GetFitness or PutFitness (the stats tier is the one shared store of evaluation work; only perfbench's layer replay times the fitness tier):"; \
		echo "$$bad"; exit 1; \
	fi
	@echo "depcheck: ok"

build:
	$(GO) build ./...

# The benchmark (perfbench/) is a Go module of its own, so `go build ./...`
# never compiles it: vet and test it here, so a rename of an API it uses
# fails verify instead of the benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Work gate: the golden digests pin each search's results, checkpoint
# bytes and hashed event stream (evaluations, sampled points, walk steps,
# classified accesses), so a change that alters the work a search does
# fails here deterministically, on any host. The catalog oracle then
# simulates every catalog search's returned tile exactly and requires it
# inside the reported interval. Both skip under the race detector, which
# is why they run here without it.
golden:
	$(GO) test -run 'Golden|Oracle' . ./internal/ga

# Fault-tolerance suite: full searches under scripted fault plans
# (evaluation panics/stalls, checkpoint-write failures, sink I/O errors)
# plus checkpoint corruption and recovery, run normally and under the
# race detector. `race` already covers these tests as part of ./...;
# running them by name keeps the chaos bar explicit and fast to iterate.
chaos:
	$(GO) test -run 'Chaos|Fault|Corrupt|Quarantine|Watchdog|Watched|Retr|AtExit|Checkpoint|Inject|Stall' . ./internal/core ./internal/cliutil ./internal/sampling ./internal/ga ./internal/telemetry/sinks ./internal/server
	$(GO) test ./internal/faultinject ./internal/retry
	$(GO) test -race -run 'Chaos|Corrupt' . ./internal/server

# Crash-recovery bar: the durable request journal (torn tails, CRC
# mismatches, rotation, compaction), tilingd's idempotency and recovery
# paths, and the SIGKILL-the-daemon suite — kill mid-search, restart,
# require zero lost accepted requests and a recovered response
# bit-identical to the crash-free run. All under the race detector.
crash-chaos:
	$(GO) test -race -count=1 ./internal/journal
	$(GO) test -race -count=1 -run 'CrashChaos|Journal|Idempotent|Restart|Recover|StateDir' . ./internal/server

# Island-model invariance bar: determinism at every island count, the
# Islands=1 ≡ single-population equivalence, and checkpoint/resume
# replay, all under the race detector (demes evolve on concurrent
# goroutines, so this is where scheduling races would surface).
islands:
	$(GO) test -race -run 'Island' . ./internal/ga ./internal/core

# Worker-count invariance bar: results, checkpoints, event streams,
# quarantine lists and fault schedules equal at every worker count, under
# the race detector. A generation's candidates are classified
# concurrently and committed in batch order; an ordering bug shows only
# under some interleavings, so the bar repeats the suite.
workers:
	$(GO) test -race -count=5 -run 'Worker|Quarantine|Watchdog|Abort' . ./internal/core ./internal/ga ./internal/sampling

# Point-solver, evaluation and search microbenchmarks, recorded as a
# JSON file: classification over a tiled space, Next/Prev at the identity
# and at a permuted tile-loop order, sample evaluation and whole searches.
# The default output lies in the ignored build directory, so a run never
# overwrites a checked-in BENCH_pr*.json record.
BENCH_OUT ?= .bench_build/bench.json
bench-json:
	@mkdir -p $(dir $(BENCH_OUT))
	$(GO) test -run '^$$' -bench 'Classify$$|PointSolverTiled$$|IterspaceTraversal|EvaluateParallel|IslandSearch|EvalCacheSearch|FidelitySearch' -benchmem . | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Short fuzz sweeps over the structured-input entry points, tilingd's
# request decoder and journal replay included, and over the point
# solver's closed-form run solve against a brute-force scan and its
# per-segment compulsory-miss test against the per-element one.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzAffine -fuzztime=30s ./internal/expr/
	$(GO) test -run=^$$ -fuzz=FuzzNestValidate -fuzztime=30s ./internal/ir/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=30s ./internal/parser/
	$(GO) test -run=^$$ -fuzz=FuzzNormalize -fuzztime=30s ./internal/server/
	$(GO) test -run=^$$ -fuzz=FuzzReplay -fuzztime=30s ./internal/journal/
	$(GO) test -run=^$$ -fuzz=FuzzRunSolve -fuzztime=30s ./internal/cme/
	$(GO) test -run=^$$ -fuzz=FuzzFirstAccess -fuzztime=30s ./internal/cme/
