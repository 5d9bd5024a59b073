# Developer entry points. `make all` is the default gate: build, lint
# (simlint + vet + gofmt), then test. `make race` is the supported
# race-detector invocation (the parallel harness is exercised by
# TestParallelRowsMatchSequential at 8 workers).

GO      ?= go
JOBS    ?= 4
TMP     ?= /tmp/iatsim

.PHONY: all build lint simlint lint-baseline vet fmtcheck test race perfbench-check smoke telemetry-smoke chaos-smoke fleet-smoke ckpt-smoke bench bench-baseline bench-diff determinism scaling clean

all: build lint test race perfbench-check telemetry-smoke chaos-smoke fleet-smoke ckpt-smoke

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

vet:
	$(GO) vet ./...

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

# chaos-smoke: the stability-under-faults experiment under the race
# detector, at 1 worker vs $(JOBS) workers. Fault schedules derive from
# the manifest seed (never from scheduling), so the two CSVs must be
# byte-identical — and the run doubles as the "hardened daemon survives
# the default fault profile" gate (a failed job fails the make).
chaos-smoke: build
	rm -rf $(TMP)/chaos1 $(TMP)/chaosN && mkdir -p $(TMP)/chaos1 $(TMP)/chaosN
	$(GO) run -race ./cmd/experiments -chaos default -jobs 1 -csv $(TMP)/chaos1 -json $(TMP)/chaos1 > /dev/null
	$(GO) run -race ./cmd/experiments -chaos default -jobs $(JOBS) -csv $(TMP)/chaosN -json $(TMP)/chaosN > /dev/null
	cmp $(TMP)/chaos1/chaos.csv $(TMP)/chaosN/chaos.csv
	grep -q '"failures": 0' $(TMP)/chaosN/manifest.json
	@echo "chaos-smoke OK: jobs=1 == jobs=$(JOBS) under -race"

# fleet-smoke: the fleet simulator acceptance gate — a 32-host canary
# rollout with a correlated fault storm on the canary cohort, run under
# the race detector at 1 worker vs 8 workers. The aggregate round CSV
# and both telemetry snapshots (controller + merged host rollup) must be
# byte-identical, and the manifest must report zero failed step jobs.
FLEETFLAGS = -hosts 32 -rollout canary -chaos default -scale 3200 -round 0.15
fleet-smoke: build
	rm -rf $(TMP)/fleet1 $(TMP)/fleetN && mkdir -p $(TMP)/fleet1 $(TMP)/fleetN
	$(GO) run -race ./cmd/fleetd $(FLEETFLAGS) -jobs 1 -csv $(TMP)/fleet1 -telemetry $(TMP)/fleet1 -json $(TMP)/fleet1 > /dev/null
	$(GO) run -race ./cmd/fleetd $(FLEETFLAGS) -jobs 8 -csv $(TMP)/fleetN -telemetry $(TMP)/fleetN -json $(TMP)/fleetN > /dev/null
	cmp $(TMP)/fleet1/fleet.csv $(TMP)/fleetN/fleet.csv
	cmp $(TMP)/fleet1/controller.json $(TMP)/fleetN/controller.json
	cmp $(TMP)/fleet1/hosts.json $(TMP)/fleetN/hosts.json
	grep -q '"failures": 0' $(TMP)/fleetN/manifest.json
	@echo "fleet-smoke OK: 32-host canary rollout, jobs=1 == jobs=8 under -race"

# ckpt-smoke: the checkpoint/restore acceptance gate. An iatd run is
# checkpointed every 3 iterations and killed mid-run by -crash-after
# (the binary is built explicitly because `go run` masks the child's
# exit 137 as its own exit 1), then resumed from the surviving
# checkpoint. The resumed run's decision stream must be byte-identical
# to the uninterrupted run's tail, its trace CSV byte-identical to the
# uninterrupted run's (the muted replay re-records the prefix), and its
# manifest must carry the resumed-from provenance. Then a fleet crash
# storm with per-round host checkpoints must stay byte-identical at
# -jobs 1 vs 8 under -race.
CKPTFLAGS = -duration 4 -interval 0.2 -chaos default -chaos-seed 7
CKPTFLEET = -hosts 8 -rollout canary -chaos heavy -chaos-seed 2 -checkpoint-every 1 -scale 3200 -round 0.2 -interval 0.05
ckpt-smoke: build
	rm -rf $(TMP)/ckpt && mkdir -p $(TMP)/ckpt/ck $(TMP)/ckpt/f1 $(TMP)/ckpt/f8
	printf 'fwd0 0 2 pc io testpmd:1500\nbatch 1 2 be - xmem:4\n@0.6s batch xmem-ws 8\n' > $(TMP)/ckpt/tenants.conf
	$(GO) build -o $(TMP)/ckpt/iatd ./cmd/iatd
	$(TMP)/ckpt/iatd -tenants $(TMP)/ckpt/tenants.conf $(CKPTFLAGS) -trace $(TMP)/ckpt/full.csv > $(TMP)/ckpt/full.txt
	$(TMP)/ckpt/iatd -tenants $(TMP)/ckpt/tenants.conf $(CKPTFLAGS) -checkpoint $(TMP)/ckpt/ck -checkpoint-every 3 -crash-after 10 > $(TMP)/ckpt/crashed.txt 2> $(TMP)/ckpt/crash.err; [ $$? -eq 137 ]
	grep -q 'simulated crash after iteration 10' $(TMP)/ckpt/crash.err
	$(TMP)/ckpt/iatd -tenants $(TMP)/ckpt/tenants.conf $(CKPTFLAGS) -resume $(TMP)/ckpt/ck/iatd.ckpt -trace $(TMP)/ckpt/resumed.csv -json $(TMP)/ckpt > $(TMP)/ckpt/resumed.txt
	cmp $(TMP)/ckpt/full.csv $(TMP)/ckpt/resumed.csv
	grep '^\[' $(TMP)/ckpt/full.txt | grep -v '] event:' | tail -n +10 > $(TMP)/ckpt/tail.want
	grep '^\[' $(TMP)/ckpt/resumed.txt | grep -v '] event:' > $(TMP)/ckpt/tail.got
	cmp $(TMP)/ckpt/tail.want $(TMP)/ckpt/tail.got
	[ "$$(grep '^iatd: done;' $(TMP)/ckpt/full.txt)" = "$$(grep '^iatd: done;' $(TMP)/ckpt/resumed.txt)" ]
	grep -q '"resumed_from"' $(TMP)/ckpt/manifest.json
	$(GO) run -race ./cmd/fleetd $(CKPTFLEET) -jobs 1 -csv $(TMP)/ckpt/f1 > /dev/null
	$(GO) run -race ./cmd/fleetd $(CKPTFLEET) -jobs 8 -csv $(TMP)/ckpt/f8 > /dev/null
	cmp $(TMP)/ckpt/f1/fleet.csv $(TMP)/ckpt/f8/fleet.csv
	@echo "ckpt-smoke OK: kill+resume tail == uninterrupted run; fleet crash storm jobs=1 == jobs=8 under -race"

# bench: the micro-benchmark suite (cache access, KV packet generation,
# NIC poll, daemon tick and iteration, policy decision, platform step,
# fleet round, host checkpoint) via `go test -bench`, converted to JSON
# at results/bench.json by cmd/benchjson.
BENCHES ?= LLCAccess|HierarchyAccess|GeneratorNextKV|NICPollRx|DaemonTick|DaemonIteration|PolicyDecide|Table2DaemonIteration|Table1PlatformStep|FleetRound|HostCheckpoint
bench: build
	mkdir -p $(TMP) results
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem . > $(TMP)/bench.txt
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
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count $(BENCH_COUNT) . > $(TMP)/bench-baseline.txt
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
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count $(BENCH_COUNT) . > $(TMP)/bench-head.txt
	$(GO) run ./cmd/benchjson -best -in $(TMP)/bench-head.txt -out $(TMP)/bench-head.json
	$(GO) run ./cmd/benchjson -diff -tolerance $(BENCH_TOLERANCE) results/bench-baseline.json $(TMP)/bench-head.json

# determinism: -all at 1 worker vs 8 workers must emit byte-identical CSV
# rows. fig15.csv is excluded: it measures host wall-clock time (the
# daemon's real per-iteration cost) and is nondeterministic even between
# two sequential runs — see results/README.md.
determinism: build
	rm -rf $(TMP)/det1 $(TMP)/det8 && mkdir -p $(TMP)/det1 $(TMP)/det8
	$(GO) run ./cmd/experiments -all -jobs 1 -csv $(TMP)/det1 -json $(TMP)/det1 > /dev/null
	$(GO) run ./cmd/experiments -all -jobs 8 -csv $(TMP)/det8 -json $(TMP)/det8 > /dev/null
	@fail=0; for f in $(TMP)/det1/*.csv; do \
		b=$$(basename $$f); \
		[ "$$b" = "fig15.csv" ] && continue; \
		cmp -s $$f $(TMP)/det8/$$b || { echo "DIVERGED: $$b"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "determinism OK: jobs=1 == jobs=8 (fig15 excluded: wall-clock)" || exit 1

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
