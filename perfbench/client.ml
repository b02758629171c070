(* A protocol client over one Unix-socket connection, and the server
   process it talks to. *)

type conn = { fd : Unix.file_descr; ic : in_channel; buf : Buffer.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; ic = Unix.in_channel_of_descr fd; buf = Buffer.create 4096 }
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* the number of raw lines that follow a first reply line: of the verbs
   the workloads send, only lint frames a body *)
let framed_lines first =
  let field key =
    List.find_map
      (fun w ->
        let k = String.length key in
        if String.length w > k && String.equal (String.sub w 0 k) key then
          int_of_string_opt (String.sub w k (String.length w - k))
        else None)
      (String.split_on_char ' ' first)
  in
  if Oracle.starts_with ~prefix:"ok lint " first then Option.value ~default:0 (field "findings=")
  else 0

(* Sends one request (its line and body in one write) and reads its whole
   reply. [None] when the connection dropped. *)
let request c line body =
  Buffer.clear c.buf;
  Buffer.add_string c.buf line;
  Buffer.add_char c.buf '\n';
  List.iter
    (fun l ->
      Buffer.add_string c.buf l;
      Buffer.add_char c.buf '\n')
    body;
  match write_all c.fd (Buffer.contents c.buf) with
  | exception Unix.Unix_error _ -> None
  | () -> (
    match input_line c.ic with
    | exception (End_of_file | Sys_error _) -> None
    | first ->
      let rec more n acc =
        if n = 0 then Some (List.rev acc)
        else
          match input_line c.ic with
          | exception (End_of_file | Sys_error _) -> None
          | l -> more (n - 1) (l :: acc)
      in
      more (framed_lines first) [ first ])

(* {1 The server process} *)

(* The load generator and the server share one CPU: with one connection
   in a closed loop they never run at once, and on a virtual machine a
   wake-up sent to another CPU costs an interprocessor interrupt. Left
   unpinned, the scheduler moved the pair between one and two CPUs from
   run to run, and warm-mix p50 moved by 40%. Call before spawning. *)
external pin_first_cpu : unit -> int = "perfbench_pin_first_cpu"

(* Gives the calling thread back every CPU it was allowed before
   [pin_first_cpu]; domains spawned afterwards inherit that. *)
external unpin : unit -> unit = "perfbench_unpin"

type server = { pid : int; socket : string }

(* [--domains 1] pins the one setting whose default depends on the
   machine (one accept domain per core): with it left at its default, the
   benchmark would measure a different server on every core count, and on
   a 2-core machine the idle domain's stop-the-world GC handshakes with
   the busy one made author-check throughput swing by 30% between runs. *)
let spawn ~adtc ~socket ~cache_dir ~files ~log =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ adtc; "serve"; "--socket"; socket; "--domains"; "1" ]
    @ (match cache_dir with Some d -> [ "--cache-dir"; d ] | None -> [])
    @ files
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process adtc (Array.of_list args) devnull err err in
  Unix.close devnull;
  Unix.close err;
  { pid; socket }

let alive s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Connects as soon as the server listens; fails if it exits first or
   takes longer than [timeout] seconds. *)
let connect_when_ready ?(timeout = 60.) s =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match if Sys.file_exists s.socket then connect s.socket else None with
    | Some c -> c
    | None ->
      if not (alive s) then failwith "adtc serve exited before listening";
      if Unix.gettimeofday () > deadline then failwith "adtc serve did not start listening";
      Unix.sleepf 0.0005;
      go ()
  in
  go ()

(* SIGTERM (the server drains and flushes its store), then wait for it;
   SIGKILL if it has not exited after [grace] seconds *)
let stop ?(grace = 20.) s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      end
      else begin
        Unix.sleepf 0.002;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()
