(* Integration tests of the simulated kernel, scheduler, signals and
   energy model. *)

let testing = Platform.testing

let fresh ?(seed = 7L) () = Sim_os.Engine.create ~platform:testing ~seed ()

let assemble = Isa.Asm.assemble_exn

(* A program that writes "hi\n" to stdout and exits 0. *)
let hello_src =
  {|
  .name hello
  .data 0x2000 "hi\n"
    li r0, 1      ; write
    li r1, 1      ; stdout
    li r2, 0x2000
    li r3, 3
    syscall
    li r0, 0      ; exit
    li r1, 0
    syscall
|}

let run_to_completion ?(max_ns = 50_000_000) eng =
  Sim_os.Engine.run ~max_ns eng

let test_hello () =
  let eng = fresh () in
  let pid =
    Sim_os.Engine.spawn eng ~program:(assemble hello_src) ~core:0 ()
  in
  run_to_completion eng;
  Alcotest.(check string) "stdout" "hi\n" (Sim_os.Engine.output eng);
  match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 0 -> ()
  | _ -> Alcotest.fail "process did not exit cleanly"

let test_exit_status () =
  let eng = fresh () in
  let prog = assemble "li r0, 0\nli r1, 42\nsyscall" in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 42 -> ()
  | Sim_os.Engine.Exited n -> Alcotest.failf "exit status %d, wanted 42" n
  | _ -> Alcotest.fail "still live")

let test_brk_and_memory () =
  let eng = fresh () in
  (* Grow the heap, store a value, load it back, use it as exit status. *)
  let prog =
    assemble
      {|
      .brk 0x10000
        li r0, 5         ; brk
        li r1, 0x14000
        syscall
        li r5, 0x13ff8
        li r6, 7
        store r6, r5, 0
        load r7, r5, 0
        li r0, 0
        mov r1, r7
        syscall
      |}
  in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 7 -> ()
  | Sim_os.Engine.Exited n -> Alcotest.failf "exit status %d, wanted 7" n
  | _ -> Alcotest.fail "still live")

let test_segfault_kills () =
  let eng = fresh () in
  let prog = assemble "li r5, 0x900000\nload r6, r5, 0\nli r0, 0\nsyscall" in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited n ->
    Alcotest.(check int) "killed by SIGSEGV" (128 + Sim_os.Sig_num.sigsegv) n
  | _ -> Alcotest.fail "still live")

let test_div_by_zero () =
  let eng = fresh () in
  let prog = assemble "li r1, 4\nli r2, 0\ndiv r3, r1, r2\nli r0, 0\nsyscall" in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited n ->
    Alcotest.(check int) "killed by SIGFPE" (128 + Sim_os.Sig_num.sigfpe) n
  | _ -> Alcotest.fail "still live")

let test_read_dev_zero () =
  let eng = fresh () in
  let prog =
    assemble
      {|
      .data 0x2000 "/dev/zero"
      .brk 0x10000
        li r0, 3         ; open
        li r1, 0x2000
        li r2, 9
        li r3, 0
        syscall
        mov r10, r0      ; fd
        li r0, 5         ; brk to get a buffer
        li r1, 0x14000
        syscall
        li r0, 2         ; read
        mov r1, r10
        li r2, 0x10000
        li r3, 64
        syscall
        li r0, 0
        mov r1, r0
        li r1, 0
        syscall
      |}
  in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 0 -> ()
  | _ -> Alcotest.fail "read program did not finish")

let test_gettime_monotonic () =
  let eng = fresh () in
  (* Two gettime calls; exit status 1 if the second is >= the first. *)
  let prog =
    assemble
      {|
        li r0, 10
        syscall
        mov r10, r0
        li r0, 10
        syscall
        mov r11, r0
        li r1, 0
        bge r11, r10, good
        jmp bad
      good:
        li r1, 1
      bad:
        li r0, 0
        syscall
      |}
  in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 1 -> ()
  | Sim_os.Engine.Exited n -> Alcotest.failf "status %d" n
  | _ -> Alcotest.fail "still live")

let test_signal_handler () =
  let eng = fresh () in
  (* Register a SIGUSR1 handler that sets a flag in memory (sigreturn
     restores registers, so the handler must communicate through memory),
     then spin on the flag; exits with the flag value. The handler entry
     is instruction index 11 — labels are not first-class integers in the
     asm syntax, so the sigaction argument is written as a literal. *)
  let prog =
    assemble
      {|
      .zero 0x2000 8
        li r0, 11        ; sigaction
        li r1, 10        ; SIGUSR1
        li r2, 11        ; handler instruction index
        syscall
        li r14, 0x2000
      spin:
        load r12, r14, 0
        li r13, 1
        bne r12, r13, spin
        li r0, 0
        mov r1, r12
        syscall
      handler:
        li r11, 0x2000
        li r10, 1
        store r10, r11, 0
        li r0, 12        ; sigreturn
        syscall
      |}
  in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  (* Let it register the handler, then signal it. *)
  for _ = 1 to 3 do
    Sim_os.Engine.step_quantum eng
  done;
  Sim_os.Engine.send_signal eng pid Sim_os.Sig_num.sigusr1;
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 1 -> ()
  | Sim_os.Engine.Exited n -> Alcotest.failf "status %d, wanted 1" n
  | _ -> Alcotest.fail "still live")

let test_unhandled_signal_kills () =
  let eng = fresh () in
  let prog = assemble "spin:\njmp spin" in
  let pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  Sim_os.Engine.step_quantum eng;
  Sim_os.Engine.send_signal eng pid Sim_os.Sig_num.sigint;
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited n ->
    Alcotest.(check int) "SIGINT status" (128 + Sim_os.Sig_num.sigint) n
  | _ -> Alcotest.fail "still live")

let test_mmap_aslr_differs () =
  (* Two identical untraced processes get different mmap addresses. *)
  let eng = fresh () in
  let src =
    {|
      li r0, 6          ; mmap
      li r1, 0
      li r2, 8192
      li r3, 3          ; RW
      li r4, 3          ; PRIVATE|ANON
      li r5, -1
      syscall
      mov r10, r0
      store r10, r10, 0 ; touch it
      li r0, 1          ; write the address? no — just exit with low bits
      li r0, 0
      mov r1, r10
      syscall
    |}
  in
  let prog = assemble src in
  let pid1 = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  let pid2 = Sim_os.Engine.spawn eng ~program:prog ~core:1 () in
  run_to_completion eng;
  let status pid =
    match Sim_os.Engine.state eng pid with
    | Sim_os.Engine.Exited n -> n
    | _ -> Alcotest.fail "still live"
  in
  let a1 = status pid1 and a2 = status pid2 in
  if a1 = a2 then Alcotest.failf "ASLR gave both processes address %#x" a1

let test_energy_positive_and_grows () =
  let eng = fresh () in
  let prog = assemble "li r5, 1000000\nspin:\naddi:\n sub r5, r5, 1\n li r6, 0\n bne r5, r6, spin\nli r0, 0\nli r1, 0\nsyscall" in
  let _pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
  let e0 = Sim_os.Engine.energy_j eng in
  Alcotest.(check bool) "starts at zero" true (e0 = 0.0);
  run_to_completion eng;
  let e1 = Sim_os.Engine.energy_j eng in
  Alcotest.(check bool) "energy grew" true (e1 > 0.0);
  let breakdown = Sim_os.Engine.energy_breakdown_j eng in
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 breakdown in
  Alcotest.(check (float 1e-9)) "breakdown sums to total" e1 total

let test_dvfs_level_changes () =
  let eng = fresh () in
  Sim_os.Engine.set_dvfs_level eng ~cluster:1 ~level:0;
  Alcotest.(check int) "level set" 0 (Sim_os.Engine.dvfs_level eng ~cluster:1);
  (try
     Sim_os.Engine.set_dvfs_level eng ~cluster:1 ~level:99;
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_determinism () =
  let run_once () =
    let eng = fresh ~seed:99L () in
    let prog = assemble hello_src in
    let _pid = Sim_os.Engine.spawn eng ~program:prog ~core:0 () in
    run_to_completion eng;
    (Sim_os.Engine.now_ns eng, Sim_os.Engine.energy_j eng)
  in
  let a = run_once () and b = run_once () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_little_core_slower () =
  (* The same compute loop takes longer on a little core. *)
  let src = "li r5, 200000\nspin:\n sub r5, r5, 1\n li r6, 0\n bne r5, r6, spin\nli r0, 0\nli r1, 0\nsyscall" in
  let time_on core =
    let eng = fresh () in
    let pid = Sim_os.Engine.spawn eng ~program:(assemble src) ~core () in
    run_to_completion eng;
    let st = Sim_os.Engine.proc_stats eng pid in
    st.Sim_os.Engine.ended_ns - st.Sim_os.Engine.started_ns
  in
  let big = time_on 0 in
  let little = time_on 2 in
  Alcotest.(check bool)
    (Printf.sprintf "little (%d ns) slower than big (%d ns)" little big)
    true
    (little > big)

(* Self-modifying code through the kernel: the patch_code syscall
   rewrites an instruction the program already executed (so the block
   spanning it is cached), and the next loop trip must run the new
   bytes — the syscall is the Harvard-layout analogue of a store to a
   code page plus icache flush. *)
let test_patch_code_syscall () =
  let word =
    match Isa.Insn.encode (Isa.Insn.Li (4, 77)) with
    | Some w -> w
    | None -> Alcotest.fail "li r4, 77 does not encode"
  in
  let src =
    Printf.sprintf
      {|
        li r5, 2         ; trips remaining
        li r6, 0
      loop:
        li r4, 33        ; patch target: becomes "li r4, 77"
        li r0, 14        ; patch_code
        li r1, 2
        li r2, %d
        syscall
        sub r5, r5, 1
        bne r5, r6, loop
        li r0, 0         ; exit with the last trip's r4
        mov r1, r4
        syscall
      |}
      word
  in
  let eng = fresh () in
  let pid = Sim_os.Engine.spawn eng ~program:(assemble src) ~core:0 () in
  run_to_completion eng;
  (match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 77 -> ()
  | Sim_os.Engine.Exited n ->
    Alcotest.failf "exit status %d: the patched instruction did not run" n
  | _ -> Alcotest.fail "still live");
  let _, _, invalidations = Sim_os.Engine.block_cache_totals eng in
  Alcotest.(check bool) "cached block was invalidated" true
    (invalidations > 0)

let test_patch_code_syscall_rejects_junk () =
  (* An undecodable word must fail with EINVAL (-22), leaving the code
     image untouched, and the program must be able to observe that. *)
  let src =
    {|
      li r0, 14
      li r1, 0
      li r2, -1        ; no instruction encodes to all-ones
      syscall
      li r4, 1
      blt r0, r4, bad  ; r0 = -22 < 1: the expected path
      li r0, 0
      li r1, 9
      syscall
    bad:
      li r0, 0
      li r1, 22
      syscall
    |}
  in
  let eng = fresh () in
  let pid = Sim_os.Engine.spawn eng ~program:(assemble src) ~core:0 () in
  run_to_completion eng;
  match Sim_os.Engine.state eng pid with
  | Sim_os.Engine.Exited 22 -> ()
  | Sim_os.Engine.Exited n -> Alcotest.failf "exit status %d, wanted 22" n
  | _ -> Alcotest.fail "still live"

let test_platform_names () =
  List.iter
    (fun (p : Platform.t) ->
      match Platform.of_name p.Platform.name with
      | Some q -> Alcotest.(check bool) (p.Platform.name ^ " round-trips") true (q == p)
      | None -> Alcotest.failf "%s not found by name" p.Platform.name)
    [ Platform.apple_m2; Platform.intel_i7; Platform.testing ];
  Alcotest.(check bool) "unknown name rejected" true
    (Option.is_none (Platform.of_name "pdp11"))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "sim_os"
    [
      ( "kernel",
        [
          tc "hello world writes stdout" `Quick test_hello;
          tc "exit status propagates" `Quick test_exit_status;
          tc "brk + load/store" `Quick test_brk_and_memory;
          tc "segfault kills" `Quick test_segfault_kills;
          tc "div by zero kills" `Quick test_div_by_zero;
          tc "read /dev/zero" `Quick test_read_dev_zero;
          tc "gettime monotonic" `Quick test_gettime_monotonic;
          tc "mmap ASLR differs" `Quick test_mmap_aslr_differs;
          tc "patch_code syscall (SMC)" `Quick test_patch_code_syscall;
          tc "patch_code rejects junk" `Quick test_patch_code_syscall_rejects_junk;
        ] );
      ( "signals",
        [
          tc "handler + sigreturn" `Quick test_signal_handler;
          tc "unhandled signal kills" `Quick test_unhandled_signal_kills;
        ] );
      ( "model",
        [
          tc "energy accounting" `Quick test_energy_positive_and_grows;
          tc "dvfs levels" `Quick test_dvfs_level_changes;
          tc "determinism" `Quick test_determinism;
          tc "little core slower" `Quick test_little_core_slower;
          tc "platform names round-trip" `Quick test_platform_names;
        ] );
    ]
