(** The SPEC CPU2006 stand-in suite.

    One entry per benchmark appearing in the paper's figures, with the
    published run structure (number of reference inputs) and a generator
    profile matching the benchmark's memory/compute character — see
    DESIGN.md for the substitution argument. Working-set sizes are chosen
    relative to the modelled cache capacities: "gap" benchmarks (working
    set fits the big cluster's L2 but not the little cluster's) are the
    ones whose checkers fall behind on little cores, exactly the mcf /
    milc / lbm story in §5.2-5.3. *)

type category = Int_suite | Fp_suite

type t = {
  name : string;
  category : category;
  inputs : int;  (** reference inputs = separate sequential processes *)
  description : string;
  base_outer : int;  (** outer iterations per input at scale 1.0 *)
  spec : Codegen.spec;  (** iteration counts here are per input *)
}

val all : t list
(** The 16 benchmarks, SPEC numbering order. *)

val names : string list

val find : string -> t option

val programs : t -> page_size:int -> scale:float -> Isa.Program.t list
(** One program per input. [scale] multiplies outer iteration counts
    (clamped to at least 1); input [i] uses a distinct data seed.
    Registry footprints are in 16 KiB-page units; they are converted so
    the byte footprint is page-size independent (4x the pages on 4 KiB
    Intel — the paper's checkpointing-cost argument, §5.8). *)

val detimed : t -> t
(** The benchmark with no gettime or rdtsc calls and no mmap churn, so
    its output and final state are a pure function of the program and
    its rng streams. Those values feed workload output, and a
    re-dispatched check, a rollback or another tenant shifts timing and
    allocation order; the real system records and replays them, which
    makes them invisible to checking. Stripping them gives an oracle an
    exact, timing-independent ground truth while leaving the
    memory/compute character untouched. *)
