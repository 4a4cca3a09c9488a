GO ?= go

.PHONY: verify fmt-check vet lint lint-json lint-allows build test race bench smoke profile-campaign profile-smoke fuzz-short loc FORCE

## verify: the CI entry point — gofmt, vet, the roamvet determinism/hygiene
## analyzers, build, every test suite under the race detector (internal/fleet's
## proof table of whole-campaign differential rows included),
## then the smokes that drive real binaries: amigo-server as one server
## and as WAL-backed shards, roam-fleet's self-hosted plane through a
## shard kill and a live reshard, and the campaign profiler on both
## clocks.
verify: fmt-check vet lint build race smoke profile-smoke

## fmt-check: fail, naming the files, if anything is not gofmt-clean.
fmt-check:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l:"; gofmt -l .; exit 1; }

vet:
	$(GO) vet ./...

## lint: run the eight roamvet analyzers (ROAM002-009) over the whole
## module, once, timed: nonzero exit on any finding, and on a run over
## its 30 s wall-clock budget — an analyzer gone super-linear
## on real code (the flow-aware analyzers must stay cheap enough to run
## on every push; BenchmarkRoamvet localizes a regression). The export
## data roamvet loads is built first, untimed, by the same go list it
## runs: on a cold build cache that compile is most of a run, and it is
## the go command's cost, not an analyzer's. The binary is rebuilt
## unconditionally — the Go build cache makes that cheap, and a
## prerequisite list built from $(wildcard) goes quietly stale when a
## source file is deleted (the list shrinks, the timestamp comparison
## passes, and an outdated roamvet green-lights the tree).
bin/roamvet: FORCE
	$(GO) build -o bin/roamvet ./cmd/roamvet

FORCE:

lint: bin/roamvet
	@$(GO) list -e -export -deps ./... >/dev/null
	@start=$$(date +%s); ./bin/roamvet || exit 1; \
	elapsed=$$(($$(date +%s) - start)); \
	echo "lint: full-module roamvet run took $${elapsed}s (budget 30s)"; \
	test $$elapsed -le 30 || { echo "lint: FAIL — an analyzer is over budget" >&2; exit 1; }

## lint-json: findings plus the //lint:allow waiver inventory as JSON
## (for editor/CI integration).
lint-json: bin/roamvet
	./bin/roamvet -json

## lint-allows: the active //lint:allow directives — every place the
## tree opts out of a contract, and why.
lint-allows: bin/roamvet
	./bin/roamvet -allows

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

## smoke: the real binaries end to end (scripts/smoke.sh): roam-fleet's
## flag refusals; one amigo-server's Prometheus exposition, schedule
## bounds and an amigo-me over the two v3 routes; roam-fleet killing a
## shard mid-campaign and live-resharding 1→4 with compaction, both under
## -crosscheck; a sharded, WAL-backed amigo-server driven with
## -crosscheck, SIGTERMed and cold-restarted over its WALs, and
## cold-started over the resharded set by its manifest.
smoke:
	bash scripts/smoke.sh

## profile-campaign: where a campaign's bytes and cycles go, in one
## command: run the self-hosted fleet campaign (MES endpoints, 1000 by
## default; FLEET_FLAGS adds roam-fleet flags, e.g. FLEET_FLAGS='-chaos
## light -virtual-time -realize') once under -cpuprofile and once under
## -memprofile, then print each run's fleet: line (and, on the virtual
## clock, its virtual: line with the quiescence-advance count) and the
## top of both profiles — allocations ranked by bytes and by count
## (net/http's buffers lead the first, small per-task objects the
## second). -memprofile records every allocation, so the count listing
## is exact; it also slows the run severalfold, which is why the CPU
## profile comes from a run of its own. The allocation listings ignore
## the world build; the profiles stay in bin/ for `go tool pprof -list`.
MES ?= 1000
FLEET_FLAGS ?=
profile-campaign:
	$(GO) build -o bin/roam-fleet ./cmd/roam-fleet
	./bin/roam-fleet -mes $(MES) $(FLEET_FLAGS) -cpuprofile bin/campaign.cpu.prof | grep -E '^(fleet|virtual):'
	./bin/roam-fleet -mes $(MES) $(FLEET_FLAGS) -memprofile bin/campaign.mem.prof | grep -E '^(fleet|virtual):'
	$(GO) tool pprof -top -nodecount=25 -sample_index=alloc_space -ignore='airalo\.Build' bin/roam-fleet bin/campaign.mem.prof
	$(GO) tool pprof -top -nodecount=25 -sample_index=alloc_objects -ignore='airalo\.Build' bin/roam-fleet bin/campaign.mem.prof
	$(GO) tool pprof -top -nodecount=25 bin/roam-fleet bin/campaign.cpu.prof

## profile-smoke: profile-campaign at 50 MEs, once on the wall clock and
## once under FLEET_FLAGS='-chaos light -virtual-time -realize', whose
## virtual: line must carry the quiescence-advance and park counts.
profile-smoke:
	$(MAKE) profile-campaign MES=50 FLEET_FLAGS=
	$(MAKE) profile-campaign MES=50 FLEET_FLAGS='-chaos light -virtual-time -realize' > bin/profile-virtual.log
	cat bin/profile-virtual.log
	grep -E '^virtual: .* [0-9]+ quiescence advances, [0-9]+ parks' bin/profile-virtual.log

## loc: non-test Go lines per package outside bench/ and testdata/, plus
## the total — the count ROADMAP item 6 tracks and every PR's CHANGES.md
## entry reports the delta of.
loc:
	@bash scripts/loc.sh

## fuzz-short: a 10s budget per native fuzz target, on top of the
## checked-in seed corpora (which always run as part of plain `go test`).
fuzz-short:
	$(GO) test -fuzz=FuzzDemarcate -fuzztime=10s -run=^$$ ./internal/core
	$(GO) test -fuzz=FuzzParse -fuzztime=10s -run=^$$ ./internal/ipaddr
	$(GO) test -fuzz=FuzzLookupMatchesScan -fuzztime=10s -run=^$$ ./internal/ipreg
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzSchedules -fuzztime=10s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzWALReplay -fuzztime=10s -run=^$$ ./internal/walsink
	$(GO) test -fuzz=FuzzCompactRecovery -fuzztime=10s -run=^$$ ./internal/walsink
	$(GO) test -fuzz=FuzzSourceMatchesMathRand -fuzztime=10s -run=^$$ ./internal/rng
	$(GO) test -fuzz=FuzzSkipMatchesFloat64 -fuzztime=10s -run=^$$ ./internal/rng
	$(GO) test -fuzz=FuzzPayloadDecode -fuzztime=10s -run=^$$ ./internal/amigo
	$(GO) test -fuzz=FuzzProtocolModel -fuzztime=10s -run=^$$ ./internal/amigo
