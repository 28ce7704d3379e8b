GO ?= go
BIN := bin

.PHONY: all build test race lint lint-audit lint-audit-check fmt vet fuzz-smoke bench-test loc clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race builds with the amnesiadebug tag so internal/lockrank's runtime
# lock-order assertions run alongside the race detector.
race:
	$(GO) test -race -tags amnesiadebug -timeout 25m ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the repo's own go/analysis suite (tools/amnesialint) over
# the whole tree once, after stock go vet, through its parallel
# standalone driver, which prints packages analyzed, wall time and
# parallelism, and enforces LINT_BUDGET (exit 3 past it). The suite
# holds the invariants no other mechanism enforces: goroutine lifecycle
# accountability, path-sensitive pooled-batch recycling and governor
# charge release (pairflow), WAL kind exhaustiveness, context threading
# below the server layer and sentinel error hygiene. The lock hierarchy
# is `make race`'s (internal/lockrank); drop safety and the fsync
# handshake are the handle scaffold's, pinned by TestHandleContract.
# Suppress a finding only with an audited `//lint:ignore <analyzer>
# <reason>` comment (see `make lint-audit`).
LINT_BUDGET ?= 120s
lint: vet
	$(GO) build -o $(BIN)/amnesialint ./tools/amnesialint/cmd
	$(BIN)/amnesialint -budget $(LINT_BUDGET) ./...

# lint-audit regenerates the //lint:ignore inventory; paste the output
# between the lint-audit markers in README.md. CI fails on drift.
lint-audit:
	$(GO) run ./tools/amnesialint/cmd -audit ./...

lint-audit-check:
	$(GO) run ./tools/amnesialint/cmd -auditcheck README.md ./...

# fuzz-smoke runs the fuzzers briefly under the race detector with a
# shared local corpus dir; CI's fuzz step runs this target, so a new
# fuzzer is added here only.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -race -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -race -run '^$$' -fuzz FuzzNormalizeSQL -fuzztime $(FUZZTIME) ./internal/sql
	$(GO) test -race -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -race -run '^$$' -fuzz FuzzInsertDecode -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -race -run '^$$' -fuzz FuzzQueryDecode -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -race -run '^$$' -fuzz FuzzQueryHeader -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -race -run '^$$' -fuzz FuzzAppendJSONFloat -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -race -run '^$$' -fuzz FuzzAppendIntCell -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -race -run '^$$' -fuzz FuzzScanKernel -fuzztime $(FUZZTIME) ./internal/column
	$(GO) test -race -run '^$$' -fuzz FuzzValueIndex -fuzztime $(FUZZTIME) ./internal/column

# bench-test vets and tests the benchmark module. benchmarks/ is a
# module of its own, so `./...` above never reaches it, yet it compiles
# against this module's internal packages: an API change that breaks it
# must fail here, not in the benchmark driver. Its tests include a
# 1.5 s smoke pass of every workload.
bench-test:
	cd benchmarks && $(GO) vet ./... && $(GO) test ./...

# loc prints non-test Go lines per package directory and in total,
# outside benchmarks/, .bench_build/ and testdata/: the number a
# simplification PR reports before and after, like a speedup.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmarks/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

clean:
	rm -rf $(BIN)
