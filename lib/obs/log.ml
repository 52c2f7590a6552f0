(* The quiet flag is read from every experiment task, and the parallel
   runner (Util.Pool) mutates/reads it from multiple domains — an
   Atomic.t makes that race-free. Lines are formatted to a string first
   and written with a single output_string so concurrent progress lines
   never interleave mid-line. *)

let quiet_flag = Atomic.make false

let quiet () = Atomic.get quiet_flag
let set_quiet q = Atomic.set quiet_flag q

(* Long campaigns print hundreds of progress lines; prefixing each with
   the wall-time elapsed since startup makes throughput drift visible at
   a glance without a stopwatch. *)
let start_time = Unix.gettimeofday ()

let progress fmt =
  Printf.ksprintf
    (fun line ->
      if not (Atomic.get quiet_flag) then begin
        let elapsed = Unix.gettimeofday () -. start_time in
        output_string stderr (Printf.sprintf "[%7.1fs] %s\n" elapsed line);
        flush stderr
      end)
    fmt
