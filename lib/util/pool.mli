(** A fixed-size domain pool for embarrassingly parallel experiment
    loops (benchmark sweeps, fault-injection campaigns, period grids).

    Each [map] call runs its tasks on [jobs] OCaml 5 domains (the
    calling domain counts as one of them) pulling indices from a shared
    atomic cursor, and merges results {e in input order} — so the output
    is the same list [List.map] would have produced. Tasks must be
    independent: they may not share mutable state except through
    domain-safe structures. With [jobs = 1] (or a single-item list) no
    domain is spawned and the call degenerates to exactly the
    sequential path.

    The parallelism knob resolves, in priority order:
    + {!set_jobs} (the [-j N] command-line flag);
    + the [PARALLAFT_JOBS] environment variable;
    + [Domain.recommended_domain_count () - 1], floored at 1 — leave
      one core for the OS, and never parallelize on a single-core host.

    Determinism contract: a [map] over tasks whose results depend only
    on their input (all simulation runs do — engines are seeded and
    self-contained) returns a bit-identical list for every [jobs]
    value. [test/test_parallel.ml] enforces this differentially for the
    suite sweep, the fault-injection campaign and the period grid. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], floored at 1. *)

val set_jobs : int -> unit
(** Override the pool width process-wide (clamped to at least 1);
    takes precedence over [PARALLAFT_JOBS]. *)

val jobs : unit -> int
(** The resolved pool width (see the priority order above). An explicit
    width ({!set_jobs} or [PARALLAFT_JOBS]) always wins, even when core
    detection reports a single core — detection is only the fallback.
    The first fanning-out {!map} of the process logs the width and
    where it came from (["-j"], ["PARALLAFT_JOBS"] or ["detected"]) to
    stderr once (suppressed by [PARALLAFT_QUIET]), so a silently
    serialized "parallel" run is visible; a malformed [PARALLAFT_JOBS]
    value is ignored with a one-shot warning. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] like [List.map f xs], computed on [min jobs (length xs)]
    domains. If one or more tasks raise, the remaining tasks still run
    to completion and the exception of the {e lowest-indexed} failing
    task is re-raised (with its backtrace) — deterministic regardless
    of which domain hit it first. [?jobs] overrides {!jobs} for this
    call only. *)
