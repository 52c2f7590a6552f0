type t = int

let sigint = 2
let sigfpe = 8
let sigkill = 9
let sigusr1 = 10
let sigsegv = 11

let name s =
  match s with
  | 2 -> "SIGINT"
  | 5 -> "SIGTRAP"
  | 8 -> "SIGFPE"
  | 9 -> "SIGKILL"
  | 10 -> "SIGUSR1"
  | 11 -> "SIGSEGV"
  | n -> Printf.sprintf "SIG%d" n

let is_catchable s = s <> sigkill

let exit_status s = 128 + s
