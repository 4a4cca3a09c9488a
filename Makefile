GO ?= go

.PHONY: verify fmt-check vet lint lint-json lint-allows lint-guard build test race bench metrics-smoke shard-smoke reshard-smoke profile-campaign fuzz-short loc FORCE

## verify: the CI entry point — gofmt, vet, the roamvet determinism/hygiene
## analyzers, build, every test suite under the race detector (the
## chaos, shard, reshard and virtual-time differential suites included),
## then the smokes that drive real binaries: the observability endpoint,
## the sharded control plane / WAL durability, and live resharding + WAL
## compaction.
verify: fmt-check vet lint lint-guard build race metrics-smoke shard-smoke reshard-smoke

## fmt-check: fail, naming the files, if anything is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

## lint: run the nine roamvet analyzers (ROAM001-009) over the whole
## module; nonzero exit on any finding. The binary is rebuilt
## unconditionally — the Go build cache makes that cheap, and a
## prerequisite list built from $(wildcard) goes quietly stale when a
## source file is deleted (the list shrinks, the timestamp comparison
## passes, and an outdated roamvet green-lights the tree).
bin/roamvet: FORCE
	$(GO) build -o bin/roamvet ./cmd/roamvet

FORCE:

lint: bin/roamvet
	./bin/roamvet

## lint-json: findings plus the //lint:allow waiver inventory as JSON
## (for editor/CI integration).
lint-json: bin/roamvet
	./bin/roamvet -json

## lint-allows: the active //lint:allow directives — every place the
## tree opts out of a contract, and why.
lint-allows: bin/roamvet
	./bin/roamvet -allows

## lint-guard: assert a full-module roamvet run finishes inside its
## wall-clock budget (30s) — the flow-aware analyzers must stay cheap
## enough to run on every push.
lint-guard: bin/roamvet
	bash scripts/lint_guard.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench: regenerate every table/figure benchmark (incl. the campaign
## serial-vs-parallel speedup headline).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

## metrics-smoke: boot a real amigo-server, scrape /admin/metrics, and
## assert a non-empty, parseable Prometheus exposition that reflects
## live server state.
metrics-smoke:
	bash scripts/metrics_smoke.sh

## shard-smoke: the sharded control plane end to end with the real
## binaries: roam-fleet killing a shard mid-campaign with -crosscheck,
## and a roam-gateway process killed and cold-restarted over its WALs.
shard-smoke:
	bash scripts/shard_smoke.sh

## reshard-smoke: WAL lifecycle end to end with the real binaries:
## roam-fleet live-resharding 1→4 mid-campaign with compaction and
## -crosscheck, and roam-gateway cold-restarting over the resharded,
## partly compacted WAL set via the manifest.
reshard-smoke:
	bash scripts/reshard_smoke.sh

## profile-campaign: where a campaign's bytes and cycles go, in one
## command: run the self-hosted fleet campaign (MES endpoints, 1000 by
## default; FLEET_FLAGS adds roam-fleet flags, e.g. FLEET_FLAGS='-chaos
## light -virtual-time -realize') under -cpuprofile and -memprofile, then
## print the campaign's fleet: line (and, on the virtual clock, its
## virtual: line with the quiescence-advance count) and the top of both
## profiles. The allocation listing ignores the world build; the profiles
## stay in bin/ for `go tool pprof -list`.
MES ?= 1000
FLEET_FLAGS ?=
profile-campaign:
	$(GO) build -o bin/roam-fleet ./cmd/roam-fleet
	./bin/roam-fleet -mes $(MES) $(FLEET_FLAGS) -cpuprofile bin/campaign.cpu.prof -memprofile bin/campaign.mem.prof | grep -E '^(fleet|virtual):'
	$(GO) tool pprof -top -nodecount=25 -sample_index=alloc_space -ignore='airalo\.Build' bin/roam-fleet bin/campaign.mem.prof
	$(GO) tool pprof -top -nodecount=25 bin/roam-fleet bin/campaign.cpu.prof

## loc: non-test Go lines per package outside bench/ and testdata/, plus
## the total — the count ROADMAP item 7 tracks and every PR's CHANGES.md
## entry reports the delta of.
loc:
	@bash scripts/loc.sh

## fuzz-short: a 10s budget per native fuzz target, on top of the
## checked-in seed corpora (which always run as part of plain `go test`).
fuzz-short:
	$(GO) test -fuzz=FuzzDemarcate -fuzztime=10s -run=^$$ ./internal/core
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/ipaddr
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s -run=^$$ ./internal/walsink
	$(GO) test -fuzz=FuzzCompactRecovery -fuzztime=10s -run=^$$ ./internal/walsink
	$(GO) test -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s -run=^$$ ./internal/rng
