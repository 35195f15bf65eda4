.PHONY: all build test check bench soak lint verify fmt fmt-check clean profile

all: build

build:
	dune build @all

test:
	dune runtest

# Full verification: build everything, run the test suite (which also
# runs the repo benchmark's self-test, `perfbench/benchmark.exe --scale
# tiny`: every workload untraced and traced, repetitions agree, traced
# and untraced telemetry are identical, every metric is named in
# BENCHMARK.json) and the silkroad-verify gate, then a demo run that
# exercises the telemetry pipeline end to end (leaving every balancer's
# registry snapshot in BENCH_telemetry.json) and the control-plane
# smoke bench (serve-mode update churn under replay load).
check: build test verify
	dune exec bin/silkroad_cli.exe -- demo --rate 50 --updates 6 --seconds 30 --dips 8 \
	  --metrics-json BENCH_telemetry.json
	dune exec bench/main.exe -- --control --smoke

# The paper reproduction: every table and figure of the evaluation at
# the quick operating point (`silkroad_cli experiments --full` for the
# larger one, `silkroad_cli experiment ID` for one of them).
bench:
	dune exec bin/silkroad_cli.exe -- experiments

# silkroad-lint: pipeline feasibility (stage/SRAM/ALU budgets on the §6
# chip), network-wide VIP placement, the determinism source lint over
# lib/, bin/, test/, bench/ and examples/, surface.unused-export: every
# value a lib/ unit exports (its .mli, or its whole top level without
# one) must be used by another unit outside test/, and
# surface.unused-option: every optional parameter of such a value must
# be passed by another unit outside test/ (both read from the typed
# trees, so @check builds them for every executable first). Non-zero
# exit on any error-level finding; CI runs this as the `lint` job.
lint: build
	dune build @check
	dune exec bin/silkroad_cli.exe -- lint

# One workload of the repo benchmark under the bench/pcprof sampler
# (`make profile W=replay-full-table`, SEED defaults to 7011): builds
# perfbench/benchmark.exe and bench/pcprof/pcprof.so, runs 20
# repetitions with the sampler preloaded into the benchmark itself
# (never into a launcher: see bench/pcprof/pcprof.c), and prints the 40
# symbols that took the most samples. The samples stay in
# _build/pcprof.<W>.txt for report.py.
W ?= replay-full-table
SEED ?= 7011
profile:
	dune build ./perfbench/benchmark.exe ./bench/pcprof/pcprof.so
	LD_PRELOAD=$(CURDIR)/_build/default/bench/pcprof/pcprof.so \
	  PCPROF_OUT=$(CURDIR)/_build/pcprof.$(W).txt \
	  _build/default/perfbench/benchmark.exe --workload $(W) --seed $(SEED) --repeat 20
	python3 bench/pcprof/report.py _build/default/perfbench/benchmark.exe _build/pcprof.$(W).txt 40

# silkroad-verify: the inter-procedural Domain-safety race analysis over
# the built .cmt trees plus the bounded PCC model checker (exhausts the
# update/packet interleaving scopes and demands every seeded mutation is
# killed). Non-zero exit on any error-level finding; CI runs this as the
# `verify` job and `check` depends on it.
verify: build
	dune exec bin/silkroad_cli.exe -- verify

# The chaos soak: every built-in fault scenario crossed with every
# balancer at the full operating point (about 30 s on a 2-core host).
# Writes one CHAOS_soak.<scenario>.<balancer>.json report per run, runs
# every scenario, then fails if silkroad's broken fraction exceeded
# 0.001 in any of them. CI runs this nightly and on manual dispatch (the
# `soak` workflow job).
soak: build
	@scenarios=$$(dune exec bin/silkroad_cli.exe -- chaos --list \
	  | grep -E '^[a-z][a-z-]*:' | cut -d: -f1); \
	test -n "$$scenarios" || exit 1; \
	failed=; \
	for s in $$scenarios; do \
	  dune exec bin/silkroad_cli.exe -- chaos --scenario $$s --seed 1 \
	    --report CHAOS_soak.$$s.json || failed="$$failed $$s"; \
	done; \
	if [ -n "$$failed" ]; then echo "soak FAILED:$$failed"; exit 1; fi; \
	echo "soak OK: silkroad held PCC in every scenario"

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
