(* The repository benchmark. See README.md for the workloads, the
   metrics and the contract of the command line. *)

open Perfbench
open Fs

let usage =
  "main.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--adtc PATH]"

type args = {
  workloads : Gen.workload list;  (** One, or every workload in turn for [all]. *)
  seed : int;
  seconds : float;
  trace : bool;
  adtc : string;
  rung : (Traced.rung * int * string * string option) option;
      (** A rung process: rung, request count, run directory, store. *)
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let adtc = ref "_build/default/bin/adtc.exe" in
  let rung = ref "" and count = ref 0 and run_dir = ref "" and pristine = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--adtc", Arg.Set_string adtc, "PATH the adtc executable to serve");
      ("--rung", Arg.Set_string rung, "NAME (internal) run one rung of the traced replay");
      ("--count", Arg.Set_int count, "M (internal) requests the rung replays");
      ("--run-dir", Arg.Set_string run_dir, "DIR (internal) the parent's run directory");
      ("--pristine", Arg.Set_string pristine, "DIR (internal) the pre-filled store");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  match
    if !workload = "all" then Some (List.map snd Gen.workloads)
    else Option.map (fun w -> [ w ]) (Gen.workload_of_string !workload)
  with
  | None ->
    Fmt.epr "unknown workload %S (have: %s, all)@." !workload
      (String.concat ", " (List.map fst Gen.workloads));
    exit 2
  | Some workloads ->
    if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then (prerr_endline usage; exit 2);
    let rung =
      match Traced.rung_of_string !rung with
      | Some r -> Some (r, !count, !run_dir, if !pristine = "" then None else Some !pristine)
      | None -> if !rung = "" then None else (prerr_endline usage; exit 2)
    in
    { workloads; seed = !seed; seconds = !seconds; trace = !trace = 1; adtc = !adtc; rung }

(* One time window of the timed run: requests [first, last), their wall
   time, the server CPU time they took, and the machine's slowdown
   measured right after them (see {!Speed}). *)
type window = { first : int; last : int; wall_s : float; cpu_s : float; slowdown : float }

type timed = {
  latencies_us : float array;  (** Every request's, warm-up included. *)
  stepless : float array;  (** Per reply, {!Traced.stepless}. *)
  windows : window array;  (** The timed requests, warm-up excluded. *)
  rss_mb : float;
  dropped : bool;
}

(* the length of one window of the timed run *)
let window_s = 0.1

(* the warm-up before timing, as a share of the timed run *)
let warmup_share = 0.2

(* server set-ups per run; [setup_s] is their median *)
let setup_count = 11

(* How long the timed run lasts: a time, or a fixed number of requests
   (see {!Gen.t.requests_per_second}). *)
type budget = Seconds of float | Requests of int

let budget (g : Gen.t) seconds =
  match g.Gen.requests_per_second with
  | Some rate -> Requests (int_of_float (seconds *. float rate))
  | None -> Seconds seconds

(* One connection, closed loop: the next request goes out when the
   previous reply is complete. A warm-up of [warmup_share] of the budget
   comes first: its replies are checked, but not timed, so that caches
   fill and the heap grows before timing starts. The timed run is cut
   into windows of [window_s]. At the end of each, the server's CPU time
   is read and the machine's slowdown is probed; the probe's time is
   outside every window. *)
let timed_run ~budget ~probe server conn oracle (g : Gen.t) =
  let next = g.Gen.stream () in
  let lat = Stats.Buf.create () in
  let stepless = Stats.Buf.create () in
  let cpu () = Procfs.cpu_s server.Client.pid in
  let dropped = ref false in
  (* requests until [over] holds or the connection drops; [on_reply] is
     called after each reply with its end time *)
  let rec loop over on_reply =
    let item = next () in
    let t0 = Clock.now_ns () in
    let reply = Client.request conn item.Gen.line item.Gen.body in
    let t1 = Clock.now_ns () in
    Oracle.observe oracle item reply;
    match reply with
    | None -> dropped := true
    | Some lines ->
      Stats.Buf.push stepless (match lines with l :: _ -> Traced.stepless l | [] -> 0.);
      Stats.Buf.push lat (Clock.us_between t0 t1);
      on_reply t1;
      if not (over t1) then loop over on_reply
  in
  let elapsed_over s =
    let start = Clock.now_ns () in
    let ns = Int64.of_float (s *. 1e9) in
    fun now -> Int64.compare (Int64.sub now start) ns >= 0
  in
  let count_over n =
    let first = Stats.Buf.length lat in
    fun _ -> Stats.Buf.length lat - first >= n
  in
  let warmup, timed =
    match budget with
    | Seconds s -> (elapsed_over (s *. warmup_share), fun () -> elapsed_over s)
    | Requests n -> (count_over (int_of_float (float n *. warmup_share)), fun () -> count_over n)
  in
  loop warmup ignore;
  let window_ns = Int64.of_float (window_s *. 1e9) in
  let windows = ref [] in
  let w_start = ref (Clock.now_ns ()) and w_cpu = ref (cpu ()) in
  let w_first = ref (Stats.Buf.length lat) in
  let close_window now =
    let c = cpu () in
    windows :=
      { first = !w_first; last = Stats.Buf.length lat;
        wall_s = Int64.to_float (Int64.sub now !w_start) *. 1e-9; cpu_s = c -. !w_cpu;
        slowdown = Speed.slowdown probe }
      :: !windows;
    w_cpu := cpu ();
    w_first := Stats.Buf.length lat;
    w_start := Clock.now_ns ()
  in
  (* a budget of seconds includes the probes' time *)
  let over = timed () in
  if not !dropped then
    loop over (fun now ->
        if Int64.compare (Int64.sub now !w_start) window_ns >= 0 || over now then
          close_window now);
  {
    latencies_us = Stats.Buf.to_array lat;
    stepless = Stats.Buf.to_array stepless;
    windows = Array.of_list (List.rev !windows);
    rss_mb = Procfs.peak_rss_mb server.Client.pid;
    dropped = !dropped;
  }

(* The run's figures, [raw] as timed or at the reference speed: each
   window's times divided by the slowdown probed after it. Throughput is
   the timed requests over the windows' summed time, CPU per request the
   windows' summed CPU time over the timed requests, and the latency
   percentiles are taken over every timed request. *)
type figures = { throughput : float; cpu_us : float; latency : Stats.summary }

let figures ~raw run =
  let factor w = if raw then 1. else w.slowdown in
  let sum f = Array.fold_left (fun acc w -> acc +. f w) 0. run.windows in
  let requests = sum (fun w -> float (w.last - w.first)) in
  let latencies =
    Array.concat
      (Array.to_list
         (Array.map
            (fun w ->
              Array.map (fun us -> us /. factor w) (Array.sub run.latencies_us w.first (w.last - w.first)))
            run.windows))
  in
  {
    throughput = requests /. sum (fun w -> w.wall_s /. factor w);
    cpu_us = sum (fun w -> w.cpu_s /. factor w) *. 1e6 /. requests;
    latency = Stats.summarize latencies;
  }

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
           (if Float.is_integer value then Printf.sprintf "%.1f" value
            else Printf.sprintf "%.17g" value)
           unit)
       metrics)

(* One run of [workload]: prints its report and returns whether it was
   correct, the requests attempted and failed, and the metrics. *)
let run_workload a workload =
  (* a server that dies mid-run must read as a dropped connection, not
     kill the load generator *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let cpu = Client.pin_first_cpu () in
  let name = Gen.workload_name workload in
  let g = Gen.make workload ~seed:a.seed in
  let run_dir = Printf.sprintf ".bench_run/%s-%d" name (Unix.getpid ()) in
  rm_rf run_dir;
  mkdir_p run_dir;
  let files =
    List.map
      (fun (f, text) ->
        let path = Filename.concat run_dir f in
        write_file path text;
        path)
      g.Gen.files
  in
  let lib = Oracle.load_library g.Gen.files in
  let pristine = Filename.concat run_dir "store.pristine" in
  let store_dir = Filename.concat run_dir "store" in
  let with_store = g.Gen.prefill <> [] in
  if with_store then Traced.prefill lib g.Gen.prefill ~dir:pristine;
  let store_bytes = if with_store then dir_bytes pristine else 0 in
  let log = Filename.concat run_dir "server.log" in
  let socket = Filename.concat run_dir "s.sock" in
  let setup_oracle = Oracle.create lib in
  let oracle = Oracle.create lib in
  let budget = budget g a.seconds in
  (* set-up: spawn to the last set-up reply, [setup_count] times, each
     after a probe of the machine's slowdown; the last server is the one
     the timed run measures *)
  let setup_times = Array.make setup_count 0. and setup_slowdowns = Array.make setup_count 0. in
  let run =
    Speed.with_probe (fun probe ->
        let rec setups k =
          if with_store then copy_dir pristine store_dir;
          setup_slowdowns.(k) <- Speed.slowdown probe;
          let t0 = Clock.now_ns () in
          let server =
            Client.spawn ~adtc:a.adtc ~socket ~log ~files
              ~cache_dir:(if with_store then Some store_dir else None)
          in
          let conn =
            try
              let conn = Client.connect_when_ready server in
              List.iter
                (fun (item : Gen.item) ->
                  Oracle.observe setup_oracle item (Client.request conn item.Gen.line item.Gen.body))
                g.Gen.setup;
              conn
            with e ->
              Client.stop server;
              raise e
          in
          setup_times.(k) <- Int64.to_float (Int64.sub (Clock.now_ns ()) t0) *. 1e-9;
          if k + 1 < setup_count then begin
            Client.close conn;
            Client.stop server;
            setups (k + 1)
          end
          else (server, conn)
        in
        let server, conn = setups 0 in
        Fun.protect
          ~finally:(fun () ->
            Client.close conn;
            Client.stop server)
          (fun () -> timed_run ~budget ~probe server conn oracle g))
  in
  (* the server has stopped: the oracle may use every allowed CPU *)
  Client.unpin ();
  let oracle_started = Clock.now () in
  ignore (Oracle.finish setup_oracle);
  let props = Oracle.finish oracle in
  let oracle_s = Clock.now () -. oracle_started in
  ignore (Client.pin_first_cpu ());
  let attempted = oracle.Oracle.requests + setup_oracle.Oracle.requests in
  let failed = oracle.Oracle.failed + setup_oracle.Oracle.failed in
  List.iter
    (fun c -> Fmt.pr "FAILED %s@." c)
    (List.rev (setup_oracle.Oracle.complaints @ oracle.Oracle.complaints));
  if run.windows = [||] then begin
    Fmt.pr "FAILED the connection dropped before the first window closed@.";
    (false, attempted, max failed 1, [])
  end
  else
  let f = figures ~raw:false run and raw = figures ~raw:true run in
  let setup_s = Stats.median (Array.map2 ( /. ) setup_times setup_slowdowns) in
  let timed = Array.length run.latencies_us - run.windows.(0).first in
  let slowdowns = Array.map (fun w -> w.slowdown) run.windows in
  Fmt.pr "workload %s seed=%d %s (one connection, closed loop; adtc serve --domains 1; %s)@."
    name a.seed
    (match budget with
    | Seconds s -> Printf.sprintf "seconds=%g" s
    | Requests n -> Printf.sprintf "requests=%d (a fixed count: %g s at the nominal rate)" n a.seconds)
    (if cpu >= 0 then Printf.sprintf "client and server pinned to CPU %d" cpu else "not pinned");
  Fmt.pr "inputs   normalize requests=%d distinct=%d repeat_share=%.4f term_size mean=%.1f max=%d distinct_subterms=%d (first %d distinct terms; memo capacity %d per slot)@."
    oracle.Oracle.nf_requests props.Oracle.distinct props.Oracle.repeat_share
    props.Oracle.mean_size props.Oracle.max_size props.Oracle.subterms
    props.Oracle.subterm_sample Adt.Rewrite.Memo.default_capacity;
  if with_store then
    Fmt.pr "inputs   store at timing start: records=%d bytes=%d@."
      (List.length g.Gen.prefill) store_bytes;
  Fmt.pr "timing   %d requests in %d windows of %g s after a warm-up of %d; machine slowdown min=%.3f median=%.3f max=%.3f@."
    timed (Array.length run.windows) window_s (run.windows.(0).first)
    (Array.fold_left Float.min Float.infinity slowdowns) (Stats.median slowdowns)
    (Array.fold_left Float.max 0. slowdowns);
  Fmt.pr "%-22s %14s %6s  %s@." "metric" "value" "unit" "detail (value at the reference speed; as timed here)";
  let row name v unit detail = Fmt.pr "%-22s %14.4f %6s  %s@." name v unit detail in
  row "setup_s" setup_s "s"
    (Fmt.str "median of %d set-ups; as timed %.4f" setup_count (Stats.median setup_times));
  row "throughput_rps" f.throughput "1/s" (Fmt.str "as timed %.1f" raw.throughput);
  row "latency_p50_us" f.latency.Stats.p50 "us"
    (Fmt.str "%a; as timed %a" Stats.pp_summary f.latency Stats.pp_summary raw.latency);
  (match f.latency.Stats.p99 with
  | Some v ->
    row "latency_p99_us" v "us"
      (Fmt.str "%d samples beyond p99 of n=%d; as timed %.2f" (Stats.beyond timed 99.) timed
         (Option.get raw.latency.Stats.p99))
  | None ->
    Fmt.pr "%-22s %14s %6s  refused: n=%d leaves fewer than %d samples beyond p99@."
      "latency_p99_us" "-" "us" timed Stats.min_beyond);
  row "failed_frac" (float failed /. float attempted) "ratio" (Fmt.str "%d of %d" failed attempted);
  row "server_cpu_us_per_req" f.cpu_us "us"
    (Fmt.str "user+sys from the server's CPU-time clock (Linux-only); as timed %.2f"
       raw.cpu_us);
  row "peak_rss_mb" run.rss_mb "MB" "VmHWM from /proc (Linux-only)";
  Fmt.pr "oracle   %d distinct normal forms checked against the model and against Rewrite.Reference, in %.2f s@."
    props.Oracle.distinct oracle_s;
  let replayed = min (Traced.replay_cap workload) (Array.length run.latencies_us) in
  let metrics =
    if a.trace then
      Traced.run ~self_exe:Sys.executable_name
        ~pristine:(if with_store then Some pristine else None)
        ~run_dir g
        ~socket_us:(Array.sub run.latencies_us 0 replayed)
        ~socket_stepless:(Array.sub run.stepless 0 replayed)
    else
      [
        ("setup_s", setup_s, "s");
        ("throughput_rps", f.throughput, "1/s");
        ("latency_p50_us", f.latency.Stats.p50, "us");
      ]
      @ (match f.latency.Stats.p99 with Some v -> [ ("latency_p99_us", v, "us") ] | None -> [])
      @ [ ("server_cpu_us_per_req", f.cpu_us, "us"); ("peak_rss_mb", run.rss_mb, "MB") ]
  in
  let correct = failed = 0 && not run.dropped && f.latency.Stats.p99 <> None in
  (* the run directory is kept after a failure, server log included *)
  if correct then rm_rf run_dir;
  (correct, attempted, failed, metrics)

(* [--workload all]: every workload in turn, then one row per workload *)
let summary a results =
  let columns =
    List.fold_left
      (fun acc (_, (_, _, _, m)) ->
        acc @ List.filter_map (fun (n, _, u) -> if List.mem_assoc n acc then None else Some (n, u)) m)
      [] results
    @ [ ("failed_frac", "ratio") ]
  in
  Fmt.pr "@.summary  seed=%d seconds=%g trace=%d, one row per workload (- = not reported)@." a.seed
    a.seconds (if a.trace then 1 else 0);
  Fmt.pr "%-14s %-7s" "workload" "correct";
  List.iter (fun (n, u) -> Fmt.pr " %24s" (Printf.sprintf "%s (%s)" n u)) columns;
  Fmt.pr "@.";
  List.iter
    (fun (w, (correct, attempted, failed, metrics)) ->
      Fmt.pr "%-14s %-7b" (Gen.workload_name w) correct;
      List.iter
        (fun (n, _) ->
          match List.find_opt (fun (n', _, _) -> n' = n) metrics with
          | Some (_, v, _) -> Fmt.pr " %24.4f" v
          | None when n = "failed_frac" -> Fmt.pr " %24.4f" (float failed /. float attempted)
          | None -> Fmt.pr " %24s" "-")
        columns;
      Fmt.pr "@.")
    results

let () =
  let a = parse_args () in
  match (a.rung, a.workloads) with
  | Some (r, count, run_dir, pristine), workload :: _ ->
    let g = Gen.make workload ~seed:a.seed in
    Traced.rung r ~files:g.Gen.files ~pristine ~run_dir g ~count
  | _, [ workload ] ->
    let correct, attempted, failed, metrics = run_workload a workload in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
      correct attempted failed (json_metrics metrics);
    exit (if correct then 0 else 1)
  | _, workloads ->
    let results = List.map (fun w -> (w, run_workload a w)) workloads in
    summary a results;
    exit (if List.for_all (fun (_, (correct, _, _, _)) -> correct) results then 0 else 1)
