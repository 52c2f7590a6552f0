let prot_read = 1
let prot_write = 2
let map_private = 1
let map_anon = 2
let map_fixed = 4
let o_create = 1

let nr_exit = 0
let nr_write = 1
let nr_read = 2
let nr_open = 3
let nr_close = 4
let nr_brk = 5
let nr_mmap = 6
let nr_munmap = 7
let nr_mprotect = 8
let nr_getpid = 9
let nr_gettime = 10
let nr_sigaction = 11
let nr_sigreturn = 12
let nr_getrandom = 13
let nr_patch_code = 14

type call =
  | Exit of int
  | Write of { fd : int; addr : int; len : int }
  | Read of { fd : int; addr : int; len : int }
  | Open of { path_addr : int; path_len : int; flags : int }
  | Close of { fd : int }
  | Brk of { addr : int }
  | Mmap of { addr : int; len : int; prot : int; flags : int; fd : int; off : int }
  | Munmap of { addr : int; len : int }
  | Mprotect of { addr : int; len : int; prot : int }
  | Getpid
  | Gettime
  | Sigaction of { signum : int; handler_pc : int }
  | Sigreturn
  | Getrandom of { addr : int; len : int }
  | Patch_code of { pc : int; word : int }
  | Unknown of int

let decode cpu =
  let r i = Machine.Cpu.get_reg cpu i in
  let nonneg v = Int.max 0 v in
  let nr = r 0 in
  if nr = nr_exit then Exit (r 1)
  else if nr = nr_write then Write { fd = r 1; addr = r 2; len = nonneg (r 3) }
  else if nr = nr_read then Read { fd = r 1; addr = r 2; len = nonneg (r 3) }
  else if nr = nr_open then
    Open { path_addr = r 1; path_len = nonneg (r 2); flags = r 3 }
  else if nr = nr_close then Close { fd = r 1 }
  else if nr = nr_brk then Brk { addr = r 1 }
  else if nr = nr_mmap then
    Mmap
      { addr = r 1; len = nonneg (r 2); prot = r 3; flags = r 4; fd = r 5;
        off = 0 }
  else if nr = nr_munmap then Munmap { addr = r 1; len = nonneg (r 2) }
  else if nr = nr_mprotect then
    Mprotect { addr = r 1; len = nonneg (r 2); prot = r 3 }
  else if nr = nr_getpid then Getpid
  else if nr = nr_gettime then Gettime
  else if nr = nr_sigaction then Sigaction { signum = r 1; handler_pc = r 2 }
  else if nr = nr_sigreturn then Sigreturn
  else if nr = nr_getrandom then Getrandom { addr = r 1; len = nonneg (r 2) }
  else if nr = nr_patch_code then Patch_code { pc = r 1; word = r 2 }
  else Unknown nr

let name = function
  | Exit _ -> "exit"
  | Write _ -> "write"
  | Read _ -> "read"
  | Open _ -> "open"
  | Close _ -> "close"
  | Brk _ -> "brk"
  | Mmap _ -> "mmap"
  | Munmap _ -> "munmap"
  | Mprotect _ -> "mprotect"
  | Getpid -> "getpid"
  | Gettime -> "gettime"
  | Sigaction _ -> "sigaction"
  | Sigreturn -> "sigreturn"
  | Getrandom _ -> "getrandom"
  | Patch_code _ -> "patch_code"
  | Unknown n -> Printf.sprintf "unknown(%d)" n

type category =
  | Globally_effectful
  | Process_local
  | Non_effectful

let categorize = function
  | Exit _ | Write _ | Read _ | Open _ | Close _ -> Globally_effectful
  | Brk _ | Mmap _ | Munmap _ | Mprotect _ | Sigaction _ | Sigreturn
  | Patch_code _ ->
    (* patch_code rewrites only the caller's code image, so checkers
       re-execute it to patch their own copy — like mprotect. *)
    Process_local
  | Getpid | Gettime | Getrandom _ -> Non_effectful
  | Unknown _ -> Process_local
