GO ?= go

.PHONY: build test vet lint fmtcheck race verify bench smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repository's custom analyzers (internal/lint) over every
# package: determinism, maporder, dhterrors, panicmsg, lockedcopy,
# conndeadline, lockrpc, gorolifecycle, wirebounds. Findings listed in
# the checked-in baseline are tolerated; everything else fails the gate.
# See DESIGN.md §10 for what each analyzer enforces and why.
lint:
	$(GO) run ./cmd/dhslint -baseline .dhslint-baseline ./...

# fmtcheck fails if any tracked Go file is not gofmt-clean.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the full pre-merge gate: tier-1 (build + test) plus vet, the
# custom lint suite, formatting, and the race detector.
verify: build vet lint fmtcheck test race

# smoke runs the multi-process end-to-end test: a 5-node dhsnode ring
# over loopback TCP, a known workload, and a counted estimate checked
# against the estimator's error envelope. Tune with NODES/ITEMS/TOL.
smoke:
	./scripts/smoke.sh

# bench runs the benchmark suite (root macro-benchmarks, the
# internal/store probe-reply micro-benchmarks, the internal/wire probe
# encode/decode benchmarks, the internal/netdht client counting pass on
# 1-, 5- and 16-node loopback rings, and the internal/serve sustained-
# throughput serving benchmarks — qps/p50/p99 against a real loopback
# ring) and converts the text output into machine-readable JSON via
# cmd/benchjson, which records the protocol (benchtime, GOMAXPROCS, Go
# version) beside the numbers, so a run can be committed as a
# perf-trajectory point:
#
#   make bench BENCHTIME=2s BENCHJSON=BENCH_6.json
BENCHTIME ?= 1s
BENCHTXT  ?= bench.out
BENCHJSON ?= bench.json

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=$(BENCHTIME) . ./internal/store ./internal/wire ./internal/netdht ./internal/serve | tee $(BENCHTXT)
	$(GO) run ./cmd/benchjson -benchtime=$(BENCHTIME) < $(BENCHTXT) > $(BENCHJSON)
	@echo "wrote $(BENCHJSON)"
