(* The machine's speed, measured beside the program.

   The benchmark runs on a few cores of a shared host. Other tenants'
   load slows the whole machine by up to ~1.7x for tens of seconds at a
   time, so two runs of the same code can differ by a third. A probe of
   fixed work that does not depend on the repository's code, run on the
   benchmark's CPU between windows of the timed run, measures that
   slowdown. The probe has two parts, like a request: an allocating
   hash-table workload (the memory and GC speed that rewriting needs) and
   a ping-pong over a Unix socket with a child process on the same CPU
   (the system-call and wake-up speed that every round trip needs). The
   slowdown is the geometric mean of the two parts' times against fixed
   reference times. *)

(* The probe's times at the reference speed: the medians of the two parts
   on the 2-core virtual machine (Intel Xeon, KVM) the benchmark was tuned
   on. A figure at the reference speed reads about what that machine
   measures on an ordinary minute. *)
let reference_table_us = 8000.
let reference_ping_us = 750.

let round_trips = 100

type t = { fd : Unix.file_descr; pid : int }

(* Forks the ping-pong partner. It echoes one byte at a time and exits
   when the socket closes, also when this process dies first. Call after
   pinning the CPU, so that the partner shares it. *)
let start () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close a;
    let buf = Bytes.create 1 in
    let rec echo () = if Unix.read b buf 0 1 = 1 && Unix.write b buf 0 1 = 1 then echo () in
    (try echo () with Unix.Unix_error _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close b;
    { fd = a; pid }

let stop t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] t.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()

let with_probe f =
  let t = start () in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

(* 20,000 inserts of fresh lists into a growing table, then 40,000
   lookups *)
let table () =
  let h = Hashtbl.create 16 in
  for i = 0 to 19_999 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) [ i; i + 1 ]
  done;
  let s = ref 0 in
  for i = 0 to 39_999 do
    match Hashtbl.find_opt h ((i * 104729) land 0xfffff) with
    | Some (a :: _) -> s := !s + a
    | _ -> ()
  done;
  ignore (Sys.opaque_identity !s)

let ping t =
  let buf = Bytes.create 1 in
  for _ = 1 to round_trips do
    if Unix.write t.fd buf 0 1 <> 1 || Unix.read t.fd buf 0 1 <> 1 then
      failwith "the speed probe's partner stopped"
  done

(* The machine's slowdown against the reference speed, now: above 1 when
   the machine is slower. Takes about 10 ms. *)
let slowdown t =
  let t0 = Clock.now_ns () in
  table ();
  let t1 = Clock.now_ns () in
  ping t;
  let t2 = Clock.now_ns () in
  sqrt
    (Clock.us_between t0 t1 /. reference_table_us
    *. (Clock.us_between t1 t2 /. reference_ping_us))
