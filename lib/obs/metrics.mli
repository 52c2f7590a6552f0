(** Per-run metric aggregation: named histograms.

    Histograms retain every observation (growable, amortised O(1) add)
    and summarise on demand with exact percentiles — run lengths here
    are bounded by the simulation, so exactness is affordable and keeps
    summaries deterministic. Counts of run events are not kept here:
    the stats rows, the fleet report and the trace digest's [events:]
    counts carry them.

    All exports order series by name, so output is reproducible
    regardless of observation order. *)

module Hist : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val min : t -> float
  (** 0. when empty (as are [max], [mean] and [percentile]). *)

  val max : t -> float
  val mean : t -> float

  val percentile : t -> float -> float
  (** [percentile h p] for [p] in [0..100]: linear interpolation between
      closest ranks — the index [p/100 * (n-1)] of the sorted data,
      interpolating between neighbours. [percentile h 50.] of
      [1..100] is [50.5]. *)
end

type t

val create : unit -> t

val observe : t -> string -> float -> unit
(** Add one observation to the named histogram (created on first use). *)

val hist : t -> string -> Hist.t option

val to_text : t -> string
(** Plain-text dump: one
    [hist NAME count/min/mean/p50/p90/p99/p99.9/max/sum] line per
    histogram. *)
