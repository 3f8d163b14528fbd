GO ?= go
SEEDS ?= 3

.PHONY: all build test vet race integration verify bench fmt chaos loc

all: build test

build:
	$(GO) build ./...

# Reformat all Go sources; CI rejects anything gofmt would rewrite.
fmt:
	gofmt -w .

# Tier-1: what every change must keep green.
test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Chaos / fault-injection suite under the race detector, bounded so a
# recovery bug shows up as a timeout instead of a wedged CI job.
integration:
	$(GO) test -race -timeout 300s ./internal/integration/...

# Seed matrix: re-run the chaos + repair suite under the race detector
# with SEEDS distinct chaos seeds (RSTORE_CHAOS_SEED re-seeds every
# seeded decision — drop patterns, retry jitter). Each seed changes the
# interleavings, never the pass criteria.
chaos:
	for seed in $$(seq 1 $(SEEDS)); do \
		echo "=== chaos seed $$seed ==="; \
		RSTORE_CHAOS_SEED=$$seed $(GO) test -race -timeout 300s -count=1 ./internal/integration/... || exit 1; \
	done

# Tier-2 verification (see README "Verifying"): vet plus the full suite
# under the race detector. Slower than tier-1; run before merging anything
# that touches concurrency or the failure paths.
verify: vet
	$(GO) test -race -timeout 600s ./...

race: verify

# Regenerate every table and figure of the evaluation (E1–E11, A1–A4).
bench:
	$(GO) run ./cmd/rstore-bench -exp all

# Non-test Go lines per package (plain wc -l over every .go file git does
# not ignore) — the number ROADMAP asks every PR to report before/after in
# CHANGES.md.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v '_test\.go$$' | xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1; t += $$1 } END { for (d in n) printf "%7d  %s\n", n[d], d; printf "%7d  total\n", t }' | sort -k2
