# Convenience entry points; `make ci` is what the harness runs.

.PHONY: all build test fmt-check unused-exports monomorphic build-flags \
  parallel-smoke invariants ci clean

all: build

build:
	dune build

# Tier-1: the alcotest suites plus every rule of test/dune — the goldens
# (@golden), the block-cache smoke (@block-cache), the CLI refusals and
# the --record-log/parallaft-replay round trips.
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
# test, ftbench or examples other than its own module's pair.
# Prints `file: NAME` per uncalled export and fails if there is any. A
# mention in a comment counts as a use, so the check can miss a dead
# value but never flags a used one.
unused-exports:
	@status=0; \
	for mli in $$(find lib -name '*.mli' | sort); do \
	  files=$$(find lib bin test ftbench examples -name '*.ml' -o -name '*.mli' \
	    | grep -v -x -e "$$mli" -e "$${mli%i}"); \
	  for name in $$(sed -n 's/^val \([A-Za-z_][A-Za-z0-9_'"'"']*\).*/\1/p' "$$mli"); do \
	    grep -qw -- "$$name" $$files || { echo "$$mli: $$name"; status=1; }; \
	  done; \
	done; \
	exit $$status

# No polymorphic compare or hash on the hot path: no native object of
# the libraries a run's inner loops live in may reference the runtime's
# polymorphic comparison primitives or caml_hash. A comparison whose
# operand type the compiler cannot see (a function whose argument type
# generalises to 'a) compiles to a C call to one of them; a type
# annotation makes it an inline int or float compare. Stdlib.min and
# Stdlib.max compile to calls into Stdlib (camlStdlib.min_NN/max_NN)
# that compare polymorphically inside, so those calls fail too: use
# Int.min/Int.max or Float.min/Float.max. Prints
# `object: function: primitive` per use and fails if there is any;
# skips where objdump is not installed.
MONOMORPHIC_LIBS = isa machine mem util hash os seglog
MONOMORPHIC_PRIMS = caml_compare caml_equal caml_notequal caml_lessthan \
  caml_lessequal caml_greaterthan caml_greaterequal caml_hash \
  camlStdlib\.min_[0-9]+ camlStdlib\.max_[0-9]+
# One awk alternation; make joins continuation lines with a space, so
# the alternatives are listed space-separated and joined here.
empty :=
space := $(empty) $(empty)
MONOMORPHIC_RE = $(subst $(space),|,$(strip $(MONOMORPHIC_PRIMS)))

monomorphic: build
	@if command -v objdump >/dev/null 2>&1; then \
	  found=$$(for d in $(MONOMORPHIC_LIBS); do \
	    for o in $$(find _build/default/lib/$$d -name '*.o' | sort); do \
	      objdump -dr "$$o" | awk -v obj="$$o" ' \
	        /^[0-9a-f]+ <.*>:$$/ { fn = substr($$2, 2, length($$2) - 3) } \
	        /[[:space:]]($(MONOMORPHIC_RE))([^A-Za-z0-9_]|$$)/ { \
	          p = $$NF; sub(/[-+]0x[0-9a-f]+$$/, "", p); \
	          print obj ": " fn ": " p }' | sort -u; \
	    done; \
	  done); \
	  if [ -n "$$found" ]; then echo "$$found"; exit 1; fi; \
	else \
	  echo "monomorphic: objdump not installed, skipping"; \
	fi

# The release build of dune-workspace keeps its gain and its warning
# gate: the native compile of a hot-path module must carry dev's warning
# spec (warnings as errors) and -strict-sequence, and none of -opaque,
# -unsafe or -noassert; and Machine.Cpu's object must reach the guest
# load's page walk by a direct call. Under -opaque every cross-library
# call is a caml_applyN closure call, so the object holds none. With
# -inline 200, Address_space.load64 inlines whole and the first direct
# call left on the walk is Int_table's probe, so any function of the walk
# counts. Prints what it found; the objdump leg skips where objdump is
# not installed.
BUILD_FLAGS_CMX = _build/default/lib/mem/.mem.objs/native/mem__Address_space.cmx
BUILD_FLAGS_OBJ = _build/default/lib/machine/.machine.objs/native/machine__Cpu.o
BUILD_FLAGS_WARN = -w @1..3@5..28@30..39@43@46..47@49..57@61..62-40
LOAD_WALK_RE = camlMem__Address_space\.(load64|read_chunk)_|camlMem__Page_table\.read_frame_|camlUtil__Int_table\.probe_

build-flags: build
	@cmd=$$(dune rules $(BUILD_FLAGS_CMX) | sed -n '/(run/,$$p' | tr -s ' \n()' ' '); \
	echo "build-flags: $(notdir $(BUILD_FLAGS_CMX)):$$cmd"; \
	status=0; \
	for f in -opaque -unsafe -noassert; do \
	  case "$$cmd " in *" $$f "*) echo "build-flags: has $$f"; status=1;; esac; \
	done; \
	for f in "$(BUILD_FLAGS_WARN)" -strict-sequence; do \
	  case "$$cmd " in *" $$f "*) ;; *) echo "build-flags: lacks $$f"; status=1;; esac; \
	done; \
	if command -v objdump >/dev/null 2>&1; then \
	  calls=$$(objdump -dr $(BUILD_FLAGS_OBJ) | awk '/\tcall /{c=1; next} \
	    c && /R_X86_64_PLT32/ && $$NF ~ /$(LOAD_WALK_RE)/ {p = $$NF; \
	    sub(/[-+]0x[0-9a-f]+$$/, "", p); print p} {c=0}' | sort | uniq -c); \
	  if [ -n "$$calls" ]; then \
	    echo "build-flags: direct calls on the load walk in $(notdir $(BUILD_FLAGS_OBJ)):"; \
	    echo "$$calls"; \
	  else \
	    echo "build-flags: $(notdir $(BUILD_FLAGS_OBJ)) makes no direct call on the load walk"; \
	    status=1; \
	  fi; \
	else \
	  echo "build-flags: objdump not installed, skipping the call check"; \
	fi; \
	exit $$status

# The quick experiment suite on a 4-domain pool: exercises the parallel
# runner end to end (the determinism itself is pinned by test_parallel).
parallel-smoke: build
	PARALLAFT_QUICK=1 PARALLAFT_QUIET=1 PARALLAFT_SCALE=0.1 \
	  dune exec bin/experiments_main.exe -- -j 4 fig5

# Tier-1 again with the segment-pipeline debug invariants on
# (DESIGN.md §12): after every handled tracer event, state-machine
# legality plus the cross-structure sweep (cur/live/roles/scheduler/
# engine agreement). The test/dune rules that run the CLIs declare the
# variable as a dependency, so their outputs (the goldens' included) are
# regenerated with it on; --force re-runs the alcotest suites, which do
# not declare it.
invariants: build
	PARALLAFT_INVARIANTS=1 dune runtest --force

ci: build test invariants fmt-check unused-exports monomorphic build-flags parallel-smoke

clean:
	dune clean
