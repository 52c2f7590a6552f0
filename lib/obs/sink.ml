type t = {
  trace : Trace.t;
  metrics : Metrics.t;
  profile : Profile.t;
}

let create ?trace_capacity () =
  {
    trace = Trace.create ?capacity:trace_capacity ();
    metrics = Metrics.create ();
    profile = Profile.create ();
  }

let emit t ~ts_ns ~track ~phase ?args name =
  Trace.emit t.trace ~ts_ns ~track ~phase ?args name

let merge_into dst srcs =
  Trace.merge_into dst.trace (List.map (fun s -> s.trace) srcs);
  Metrics.merge_into dst.metrics (List.map (fun s -> s.metrics) srcs);
  Profile.merge_into dst.profile (List.map (fun s -> s.profile) srcs)

let observe t name v = Metrics.observe t.metrics name v

(* Every phase transition also lands in the trace as a Perfetto counter
   track sample ("ph":"C") named "profile.<phase>" carrying the phase's
   cumulative self-time, so the breakdown can be eyeballed next to the
   spans.  Only when the profiler is on — with it off, the trace stays
   byte-identical to an unprofiled run. *)
let counter_emit t ~ts_ns name self =
  Trace.emit t.trace ~ts_ns ~track:Trace.Run ~phase:Trace.Counter
    ~args:[ ("self_ns", Trace.Int self) ]
    ("profile." ^ name)

let phase_enter t ~ts_ns ~track ?segment name =
  if Profile.enabled t.profile then
    Profile.enter t.profile ~ts_ns ~track ?segment name

let phase_leave t ~ts_ns ~track name =
  if Profile.enabled t.profile then
    match Profile.leave t.profile ~ts_ns ~track name with
    | Some self -> counter_emit t ~ts_ns name self
    | None -> ()

let phase_add t ~ts_ns ~tracks ?segment name ns =
  if Profile.enabled t.profile then
    match Profile.add_ns t.profile ~tracks ?segment name ns with
    | Some self -> counter_emit t ~ts_ns name self
    | None -> ()

let phase_units t ~tracks ~decoded ~insns ~blocks =
  if Profile.enabled t.profile then
    Profile.add_units t.profile ~tracks ~decoded ~insns ~blocks

let phase_close_all t ~ts_ns =
  if Profile.enabled t.profile then Profile.close_all t.profile ~ts_ns
