.PHONY: all build test check bench soak lint verify fmt fmt-check clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full verification: build everything, run the test suite and the
# silkroad-verify gate, then a smoke bench run that exercises the
# telemetry pipeline end to end (leaving its registry snapshot in
# BENCH_telemetry.json) and the control-plane smoke bench (serve-mode
# update churn under replay load).
check: build test verify
	dune exec bench/main.exe -- --smoke
	dune exec bench/main.exe -- --control --smoke

bench:
	dune exec bench/main.exe

# silkroad-lint: pipeline feasibility (stage/SRAM/ALU budgets on the §6
# chip), network-wide VIP placement, and the determinism source lint
# over lib/ and bin/. Non-zero exit on any error-level finding; CI runs
# this as the `lint` job.
lint: build
	dune exec bin/silkroad_cli.exe -- lint

# silkroad-verify: the inter-procedural Domain-safety race analysis over
# the built .cmt trees plus the bounded PCC model checker (exhausts the
# update/packet interleaving scopes and demands every seeded mutation is
# killed). Non-zero exit on any error-level finding; CI runs this as the
# `verify` job and `check` depends on it.
verify: build
	dune exec bin/silkroad_cli.exe -- verify

# The chaos soak: every built-in fault scenario crossed with every
# balancer at the full operating point (~10 minutes). Writes one
# CHAOS_soak.<scenario>.<balancer>.json report per run and fails if
# silkroad breaks per-connection consistency anywhere. CI runs this
# nightly and on manual dispatch (the `soak` workflow job).
soak: build
	dune exec bench/main.exe -- --soak

# Formatting gates. ocamlformat is not vendored: when the binary is
# missing (e.g. a minimal container) these targets skip with a notice
# instead of failing; CI installs the version pinned in .ocamlformat.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not installed; skipping fmt (CI enforces it)"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping fmt-check (CI enforces it)"; \
	fi

clean:
	dune clean
	rm -f BENCH_telemetry.json CHAOS_soak.*.json chaos_report*.json
	rm -f BENCH_control.json.tmp BENCH_replay.json.tmp BENCH_netwide.json.tmp
	rm -f netwide_metrics.json *.sock
