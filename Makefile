# Make targets for the repro. `make ci` is what a pipeline should run:
# vet + build + the full test suite under the race detector + a one-shot
# benchmark pass that exercises every benchmark (including the
# allocation-free keystream engine) without burning CI minutes.

GO ?= go

.PHONY: all build vet fmt-check test race bench bench-smoke bench-json bench-guard fuzz-smoke metrics-smoke backends-smoke cipher-smoke server-smoke tls-smoke transcipher-smoke bench-harness examples-smoke ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (CI gate; run `gofmt -w .` to fix).
fmt-check:
	@fmt_out="$$(gofmt -l .)"; if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark run with allocation reporting (slow; for numbers).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: catches bit-rot in benchmark code.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable benchmark reports: the RLWE/BFV fast-path numbers
# (NTT, polynomial products, encryption) and the PASTA keystream numbers,
# each as JSON via cmd/benchjson for CI diffing.
bench-json:
	$(GO) test -run '^$$' -bench 'NTT|MulPolyInto|BFVEncrypt|PKEEncrypt|Table3PKE' -benchmem \
		./internal/rlwe ./internal/bfv . | $(GO) run ./cmd/benchjson -out BENCH_rlwe.json
	$(GO) test -run '^$$' -bench 'Table2CPUSoftware|KeyStream|MastaKeystream|AccelKeystream|AccelFarm|BackendDispatch|ServerThroughput|ServerOverhead|TranscipherBlock' -benchmem \
		./internal/pasta ./internal/masta ./internal/backend ./internal/hw ./internal/server ./internal/transcipher . | $(GO) run ./cmd/benchjson -out BENCH_pasta.json

# Allocation-regression gate on the serving-tier hot path: the
# end-to-end encrypt round trip (client encode → server decode →
# dispatch → reply → client decode) must stay within the committed
# allocs/op budgets. ServerThroughput runs the real PASTA-4 cipher;
# ServerOverhead isolates the request pipeline on a free keystream;
# AccelKeystream holds the event-driven accelerator engine to its
# allocation-free steady state (one alloc: the returned keystream).
bench-guard:
	$(GO) test -run '^$$' -bench 'ServerThroughput$$|ServerOverhead' -benchmem -benchtime 0.5s \
		./internal/server | $(GO) run ./cmd/benchjson \
		-max-allocs 'ServerThroughput$$=4,ServerOverhead$$=3' -out /dev/null
	$(GO) test -run '^$$' -bench 'AccelKeystream' -benchmem -benchtime 0.2s \
		./internal/hw | $(GO) run ./cmd/benchjson \
		-max-allocs 'AccelKeystream/.*event$$=1' -out /dev/null

# Short fuzz runs of the differential harnesses: the lazy NTT product
# against the schoolbook oracle, the structured modular reductions
# against the generic one, the wire decoder, and the event-driven
# accelerator engine against the per-cycle oracle.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMulPoly -fuzztime 5s ./internal/rlwe
	$(GO) test -run '^$$' -fuzz FuzzDotLazyAgainstNaive -fuzztime 5s ./internal/ff
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 5s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzAccelEventStep -fuzztime 5s ./internal/hw

# End-to-end check of the observability layer: a short co-simulation must
# emit a JSON metrics snapshot on stdout.
metrics-smoke:
	$(GO) run ./cmd/socsim -blocks 2 -metrics -

# Cross-backend differential check on the reduced instance (PASTA-4,
# t = 32): software, accelerator model, and SoC co-simulation must emit
# bit-identical keystream and ciphertext. The full suite (plus PASTA-3)
# runs under `make test`/`make race`; this target is the fast CI gate.
backends-smoke:
	$(GO) test -run 'TestCrossBackendDifferential/PASTA-4' -v ./internal/backend

# Conformance over the full cipher × backend matrix: every registered
# cipher family (PASTA, HERA, MASTA, plus any test-local Register) on
# every registered substrate, with typed skip-with-reason for pairs the
# capability probes refuse. This is the registry's CI gate: a new
# cipher package is covered the moment its init calls cipher.Register.
cipher-smoke:
	$(GO) test -run 'TestConformance|TestCrossBackendDifferential|TestSoftwareZeroAlloc|TestDummyCipher' -v ./internal/backend

# End-to-end check of the serving tier: bring an hheserver up in-process,
# run a client round-trip, provoke an overload rejection, scrape the
# /metrics endpoint, and shut down cleanly.
server-smoke:
	$(GO) test -run TestServerSmoke -count=1 -v ./cmd/hheserver

# Transport-security gate: serve over TLS from a self-signed PEM pair,
# reject a plaintext client, replay a captured Encrypt frame (must be
# refused with CodeReplay), and resume a parked session by token across
# a reconnect.
tls-smoke:
	$(GO) test -run TestTLSSmoke -count=1 -v ./cmd/hheserver

# Networked transciphering gate: a keyless session enrolls BFV eval keys
# over real TCP in chunks and transciphers symmetric PASTA ciphertext
# into BFV ciphertexts bit-identical to the local PackedServer oracle,
# while concurrent keystream sessions keep their latency (the heavy pool
# is segregated from the keystream path).
transcipher-smoke:
	$(GO) test -run 'TestTranscipherE2E|TestTranscipherDoesNotBlockKeystream' -count=1 -v ./internal/server

# The end-to-end benchmark harness is a module of its own (cmd/hheload/
# go.mod), so the root `./...` patterns skip it: vet and race-test it
# explicitly so an internal API change that breaks it fails here.
bench-harness:
	$(GO) -C cmd/hheload vet ./...
	$(GO) -C cmd/hheload test -race ./...

# Run the example programs that drive the HHE protocol end to end; each
# exits non-zero when its decrypted result disagrees with the plaintext
# computation.
examples-smoke:
	$(GO) run ./examples/hhe-workflow
	$(GO) run ./examples/ml-inference
	$(GO) run ./examples/network

ci: vet fmt-check build race backends-smoke cipher-smoke server-smoke tls-smoke transcipher-smoke bench-smoke bench-harness examples-smoke

clean:
	$(GO) clean ./...
	rm -f repro.test
