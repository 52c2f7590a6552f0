# Convenience entry points; `make ci` is what the harness runs.

.PHONY: all build test fmt-check unused-exports parallel-smoke \
  backend-chaos-smoke seglog-smoke bench-smoke \
  block-cache-smoke invariants golden-check ci clean

all: build

build:
	dune build

test:
	dune runtest

# Formatting is advisory: the check runs only where ocamlformat is
# installed (it is not baked into the minimal CI image), so a missing
# binary skips rather than fails.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

# No export without a caller: every top-level `val NAME` of an .mli
# under lib/ must be named (grep -w) in some .ml/.mli under lib, bin,
# bench, test, ftbench or examples other than its own module's pair.
# Prints `file: NAME` per uncalled export and fails if there is any. A
# mention in a comment counts as a use, so the check can miss a dead
# value but never flags a used one.
unused-exports:
	@status=0; \
	for mli in $$(find lib -name '*.mli' | sort); do \
	  files=$$(find lib bin bench test ftbench examples -name '*.ml' -o -name '*.mli' \
	    | grep -v -x -e "$$mli" -e "$${mli%i}"); \
	  for name in $$(sed -n 's/^val \([A-Za-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$$mli"); do \
	    grep -qw -- "$$name" $$files || { echo "$$mli: $$name"; status=1; }; \
	  done; \
	done; \
	exit $$status

# The quick experiment suite on a 4-domain pool: exercises the parallel
# runner end to end (the determinism itself is pinned by test_parallel).
parallel-smoke: build
	PARALLAFT_QUICK=1 PARALLAFT_QUIET=1 PARALLAFT_SCALE=0.1 \
	  dune exec bin/experiments_main.exe -- -j 4 fig5

# Tier-1 again with the segment-pipeline debug invariants on
# (DESIGN.md §12): after every handled tracer event, state-machine
# legality plus the cross-structure sweep (cur/live/roles/scheduler/
# engine agreement). --force because the env var is invisible to dune's
# dependency tracking.
invariants: build
	PARALLAFT_INVARIANTS=1 dune runtest --force

# Byte-identity pin of the pipeline refactor: fixed-seed stats + Perfetto
# traces of four scenarios (Parallaft/RAFT x recovery off/on) diffed
# against the goldens committed under test/goldens/.
golden-check: build
	dune build @golden

# The bechamel microbenchmark table (bench/main.ml) at the quick
# sampling budget. Its host estimates are informational (the performance
# ledger that gates changes is ftbench, see BENCHMARK.json); the leg is
# in `ci` because every fixture asserts its own result.
bench-smoke: build
	PARALLAFT_QUICK=1 dune exec bench/main.exe

# The decoded-block cache observably on by default (hits > 0 on a real
# run) and observably off under --block-cache 0 (all rows zero).
block-cache-smoke: build
	dune build @block-cache

# Persistent segment logs end to end (DESIGN.md §17): record a quick
# run with --record-log and re-check it offline with parallaft-replay
# (must verify clean, exit 0). Then the other direction: a run with an
# injected checker fault (live exit 3) must also diverge offline
# (replay exit 3). Last, the same one-shot fault under --recheck is
# re-checked away live (exit 0), and offline replay, which arms it as
# the live run's final attempt did, must agree (exit 0). All legs run
# with the segment-pipeline invariants on. (That the page codec
# compresses is checked in test_seglog.)
SEGLOG_SMOKE_ARGS := --platform testing --workload 401.bzip2 --scale 0.05 --period 3000
seglog-smoke: build
	rm -rf /tmp/parallaft_seglog /tmp/parallaft_seglog_fault /tmp/parallaft_seglog_recheck
	PARALLAFT_INVARIANTS=1 dune exec -- parallaft $(SEGLOG_SMOKE_ARGS) \
	  --record-log /tmp/parallaft_seglog > /tmp/parallaft_seglog_run.out
	PARALLAFT_INVARIANTS=1 dune exec -- parallaft-replay /tmp/parallaft_seglog
	sh -c 'PARALLAFT_INVARIANTS=1 dune exec -- parallaft $(SEGLOG_SMOKE_ARGS) \
	  --fault 3,60,6,6 --fault-target checker-mem \
	  --record-log /tmp/parallaft_seglog_fault \
	  > /tmp/parallaft_seglog_fault.out; test $$? -eq 3'
	sh -c 'PARALLAFT_INVARIANTS=1 dune exec -- parallaft-replay \
	  /tmp/parallaft_seglog_fault; test $$? -eq 3'
	PARALLAFT_INVARIANTS=1 dune exec -- parallaft $(SEGLOG_SMOKE_ARGS) \
	  --fault 3,60,6,6 --fault-target checker-mem --recheck \
	  --record-log /tmp/parallaft_seglog_recheck > /tmp/parallaft_seglog_recheck.out
	PARALLAFT_INVARIANTS=1 dune exec -- parallaft-replay /tmp/parallaft_seglog_recheck

# The checker backends end to end (DESIGN.md §18): the `backends`
# experiment with the lease supervisor's exactly-once ledger swept on
# every routed event. A deferred-backend sanity run (identical
# observables to inline, every segment verified through the batch
# queue), the staleness table, and the remote chaos campaign at three
# fixed intensities. Asserts no silent data corruption, exactly-once
# verification, at least one re-dispatch per intensity, and zero leaked
# simulated pids. Exits nonzero on any violation. (Fleet mode's end to
# end checks live in test/test_fleet.ml, run by `test` and
# `invariants`.)
backend-chaos-smoke: build
	PARALLAFT_INVARIANTS=1 dune exec bin/experiments_main.exe -- backends

ci: build test golden-check invariants fmt-check unused-exports parallel-smoke backend-chaos-smoke seglog-smoke bench-smoke block-cache-smoke

clean:
	dune clean
