# Developer entry points. `make all` is the default gate: build, lint
# (simlint + vet + gofmt), then test. `make race` is the supported
# race-detector invocation (internal/exp's TestGoldenGate runs its light
# entries there at 1 and 4 workers, exercising the parallel harness).

GO      ?= go
JOBS    ?= 4
TMP     ?= /tmp/iatsim

.PHONY: all build lint simlint lint-baseline vet fmtcheck test race perfbench-check smoke telemetry-smoke ckpt-smoke regen-check bench bench-baseline bench-diff bench-ab scaling clean

all: build lint test race perfbench-check telemetry-smoke ckpt-smoke

build:
	$(GO) build ./...

# lint enforces the determinism and hardware-model invariants (see
# EXPERIMENTS.md "Static analysis: simlint"): simlint (detlint/maporder/
# msrlint/seedflow/statelint/telemlint, interprocedural), go vet, and a
# gofmt cleanliness check. It must exit 0 at HEAD.
lint: simlint vet fmtcheck

simlint: build
	$(GO) run ./cmd/simlint

# lint-baseline regenerates results/simlint-baseline.csv (deterministic:
# rows are sorted, so the diff in a PR shows exactly the enforcement
# drift). CI's lint job diffs against the committed file and fails only
# on NEW findings.
lint-baseline: build
	$(GO) run ./cmd/simlint -baseline results/simlint-baseline.csv -write

# vet runs twice: for the host, and for arm64, where the tag-match
# kernel's assembly is not built and every probe takes the scalar loop,
# so that build is checked too.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; \
	fi
	@echo "gofmt OK"

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

# perfbench-check vets and short-tests the benchmark module (perfbench/,
# its own go.mod). Root `go test ./...` never builds it, so without this
# an API change in the simulator could break the benchmark unseen.
perfbench-check: build
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -short ./...

# smoke: one figure through the full parallel path — CSV + manifest out,
# and the manifest must report zero failed jobs.
smoke: build
	rm -rf $(TMP)/smoke && mkdir -p $(TMP)/smoke
	$(GO) run ./cmd/experiments -fig 3 -jobs $(JOBS) -csv $(TMP)/smoke -json $(TMP)/smoke
	grep -q '"failures": 0' $(TMP)/smoke/manifest.json
	@echo "smoke OK: $(TMP)/smoke/manifest.json"

# telemetry-smoke: one figure with per-job telemetry collection, then
# iatstat -validate schema-checks every produced snapshot and Chrome
# trace, and iatstat prints + diffs two of them (exercising the whole
# inspect path).
telemetry-smoke: build
	rm -rf $(TMP)/tel && mkdir -p $(TMP)/tel
	$(GO) run ./cmd/experiments -fig 8 -jobs $(JOBS) -telemetry $(TMP)/tel > /dev/null
	$(GO) run ./cmd/iatstat -validate $(TMP)/tel
	$(GO) run ./cmd/iatstat $(TMP)/tel/fig8_pkt_64_iat.json > /dev/null
	$(GO) run ./cmd/iatstat -diff $(TMP)/tel/fig8_pkt_64_baseline.json $(TMP)/tel/fig8_pkt_64_iat.json > /dev/null
	@echo "telemetry-smoke OK: $(TMP)/tel"

# ckpt-smoke: what only a built iatd binary shows about checkpoints (it
# is built explicitly because `go run` masks the child's exit 137 as its
# own exit 1): -crash-after kills the run with exit 137 and its message,
# and -resume from the surviving checkpoint completes and records the
# resumed-from provenance in its manifest. Byte-identity of the resumed
# run is cmd/iatd's TestCheckpointResumeDeterministic; fleet crash
# storms are internal/exp's TestGoldenGate (fleet-ckpt), cmd/fleetd's
# TestFleetdDeterministicAcrossJobs and internal/fleet's
# TestFleetCrashRestartDeterminism.
CKPTFLAGS = -duration 4 -interval 0.2 -chaos default -chaos-seed 7
ckpt-smoke: build
	rm -rf $(TMP)/ckpt && mkdir -p $(TMP)/ckpt/ck
	printf 'fwd0 0 2 pc io testpmd:1500\nbatch 1 2 be - xmem:4\n@0.6s batch xmem-ws 8\n' > $(TMP)/ckpt/tenants.conf
	$(GO) build -o $(TMP)/ckpt/iatd ./cmd/iatd
	$(TMP)/ckpt/iatd -tenants $(TMP)/ckpt/tenants.conf $(CKPTFLAGS) -checkpoint $(TMP)/ckpt/ck -checkpoint-every 3 -crash-after 10 > /dev/null 2> $(TMP)/ckpt/crash.err; [ $$? -eq 137 ]
	grep -q 'simulated crash after iteration 10' $(TMP)/ckpt/crash.err
	$(TMP)/ckpt/iatd -tenants $(TMP)/ckpt/tenants.conf $(CKPTFLAGS) -resume $(TMP)/ckpt/ck/iatd.ckpt -json $(TMP)/ckpt > /dev/null
	grep -q '"resumed_from"' $(TMP)/ckpt/manifest.json
	@echo "ckpt-smoke OK: iatd crashed with exit 137 and resumed with provenance"

# regen-check: regenerate every -all and -ablations CSV at the canonical
# seed and cmp each against the committed results/, naming any file that
# differs. fig15.csv records host wall-clock and is skipped. Not in `all`
# or CI yet: it takes ~4 min at JOBS=2 on a 2-vCPU host.
regen-check: build
	rm -rf $(TMP)/regen && mkdir -p $(TMP)/regen
	$(GO) run ./cmd/experiments -all -ablations -jobs $(JOBS) -csv $(TMP)/regen > /dev/null
	@fail=0; n=0; for f in $(TMP)/regen/*.csv; do \
		b=$$(basename $$f); [ "$$b" = fig15.csv ] && continue; n=$$((n+1)); \
		cmp -s $$f results/$$b || { echo "regen-check: $$b differs from results/$$b"; fail=1; }; \
	done; [ $$n -gt 0 ] || { echo "regen-check: no CSV regenerated"; exit 1; }; \
	[ $$fail -eq 0 ] && echo "regen-check OK: $$n CSVs match results/"

# bench: the micro-benchmark suite (cache tag match, cache access,
# ranged copy, ranged read of an L2-resident value and DDIO burst, KV packet generation, NIC poll, daemon tick
# and iteration, policy decision, platform step, fleet round, host
# checkpoint) via `go test -bench`, converted to JSON at
# results/bench.json by cmd/benchjson. The suite spans two packages:
# TagMatch times the unexported probe in internal/cache, the rest run in
# the root package. BENCHES is anchored on the full function name so
# that it does not also pick internal/cache's BenchmarkLLCAccess*.
BENCHES ?= ^Benchmark(TagMatch|LLCAccess|LLCIOWrite|HierarchyAccess|HierarchyAccessRange|HierarchyAccessRangeHot|DDIOWriteBurst|GeneratorNextKV|NICPollRx|DaemonTick|DaemonIteration|PolicyDecide|Table2DaemonIteration|Table1PlatformStep|FleetRound|HostCheckpoint)$$
BENCHPKGS = ./internal/cache .
bench: build
	mkdir -p $(TMP) results
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem $(BENCHPKGS) > $(TMP)/bench.txt
	$(GO) run ./cmd/benchjson -in $(TMP)/bench.txt -out results/bench.json
	@echo "bench OK: results/bench.json"

# bench-baseline re-records results/bench-baseline.json, the committed
# reference bench-diff gates against: $(BENCH_COUNT) suite runs,
# collapsed best-of-N per benchmark (the fastest run is the one least
# disturbed by the host). Regenerate (and commit) after an intentional
# performance change, or when the reference hardware class changes —
# ns/op is only comparable against a baseline from the same machine
# class.
BENCH_COUNT ?= 3
bench-baseline: build
	mkdir -p $(TMP) results
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count $(BENCH_COUNT) $(BENCHPKGS) > $(TMP)/bench-baseline.txt
	$(GO) run ./cmd/benchjson -best -in $(TMP)/bench-baseline.txt -out results/bench-baseline.json
	@echo "bench-baseline OK: results/bench-baseline.json"

# bench-diff is the regression gate (run by CI): re-run the suite
# $(BENCH_COUNT) times, then fail on any benchmark whose best run got
# >$(BENCH_TOLERANCE)% slower in ns/op or regressed in allocs/op or B/op
# vs results/bench-baseline.json. A zero baseline gates exactly (the
# hot loops' 0 allocs/op is a property, not a timing); an allocating
# baseline gets 1% slack for b.N-dependent amortization flap.
BENCH_TOLERANCE ?= 15
bench-diff: build
	mkdir -p $(TMP)
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count $(BENCH_COUNT) $(BENCHPKGS) > $(TMP)/bench-head.txt
	$(GO) run ./cmd/benchjson -best -in $(TMP)/bench-head.txt -out $(TMP)/bench-head.json
	$(GO) run ./cmd/benchjson -diff -tolerance $(BENCH_TOLERANCE) results/bench-baseline.json $(TMP)/bench-head.json

# bench-ab is a report-only A/B of the suite between BASE (a git
# revision) and the working tree, for changes smaller than the host's
# noise between recordings. The base tree is exported with git archive
# under $(TMP)/ab (no worktree is registered in .git), each side's test
# binaries are built once, and BENCHES runs in $(AB_PAIRS) alternating
# pairs, base first, one -count=1 suite per side per pair, each binary in
# its package's directory. benchjson -ab then prints every benchmark's
# ns/op median and quartiles on both sides and how many pairs the
# working tree won. It gates nothing; bench-diff stays the gate.
AB_PAIRS ?= 10
bench-ab: build
	@[ -n "$(BASE)" ] || { echo "bench-ab: name the base revision, e.g. make bench-ab BASE=HEAD~1"; exit 2; }
	rm -rf $(TMP)/ab && mkdir -p $(TMP)/ab/base
	git archive $(BASE) | tar -x -C $(TMP)/ab/base
	for pkg in $(BENCHPKGS); do \
		bin=$$(echo $$pkg | tr -c 'a-z\n' _); \
		$(GO) -C $(TMP)/ab/base test -c -o $(TMP)/ab/base$$bin.test $$pkg || exit 1; \
		$(GO) test -c -o $(TMP)/ab/head$$bin.test $$pkg || exit 1; \
	done
	for i in $$(seq $(AB_PAIRS)); do for side in base head; do \
		root=$(CURDIR); [ $$side = base ] && root=$(TMP)/ab/base; \
		for pkg in $(BENCHPKGS); do \
			bin=$(TMP)/ab/$$side$$(echo $$pkg | tr -c 'a-z\n' _).test; \
			(cd $$root/$$pkg && $$bin -test.run '^$$' -test.bench '$(BENCHES)' -test.benchmem) >> $(TMP)/ab/$$side.txt || exit 1; \
		done; \
	done; done
	$(GO) run ./cmd/benchjson -ab $(TMP)/ab/base.txt $(TMP)/ab/head.txt

# scaling: record -all wall-clock at jobs=1 vs jobs=$(JOBS) into
# results/harness-scaling.csv.
scaling: build
	rm -rf $(TMP)/scale && mkdir -p $(TMP)/scale
	@[ -f results/harness-scaling.csv ] || echo "date,host_cores,jobs,wall_s" > results/harness-scaling.csv
	@for j in 1 $(JOBS); do \
		t0=$$(date +%s.%N); \
		$(GO) run ./cmd/experiments -all -jobs $$j > /dev/null 2> /dev/null; \
		t1=$$(date +%s.%N); \
		echo "$$(date -u +%F),$$(nproc),$$j,$$(echo "$$t1 $$t0" | awk '{printf "%.1f", $$1-$$2}')" >> results/harness-scaling.csv; \
	done
	@tail -3 results/harness-scaling.csv

clean:
	rm -rf $(TMP)
