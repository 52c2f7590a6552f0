(** Progress logging for long-running harness code (experiment sweeps,
    fault-injection campaigns). A single global quiet flag replaces the
    ad-hoc [Printf.eprintf] scattered through the experiment suite, so
    test runs stay clean.

    Not quiet until {!set_quiet} says so; the library reads no
    environment ([experiments_main] sets the flag from
    [PARALLAFT_QUIET]). The flag is an [Atomic.t] and each line is
    emitted with one [output_string], so {!progress} is safe to call
    from parallel experiment tasks ([Util.Pool]) without tearing
    lines. *)

val quiet : unit -> bool
val set_quiet : bool -> unit

val progress : ('a, unit, string, unit) format4 -> 'a
(** Like [Printf.eprintf] with an implicit trailing newline and flush;
    swallowed entirely when quiet. Each line is prefixed with the
    wall-time elapsed since process start ([\[   12.3s\] ...]) so long
    campaigns show drift at a glance. *)
