(* The traced run: the first requests of a workload's stream replayed in
   fresh processes (this executable, re-run with [--rung]) against an
   [Engine.Session] built from the same specification files and store
   state as the server's, timing calls into each layer's public
   functions. Nothing inside the library is instrumented; every span is
   recorded here, around a call. No rung inherits another's heap, intern
   table or compile cache, so memo and store state match the socket run;
   each rung writes its readings to a file the parent reads.

   The request ladder: the decomposed calls a request makes
   ([Protocol.parse], [Parser.parse_term], [Session.persist_find],
   [Session.with_interp] + [Interp.eval_count], [Session.persist_record],
   rendering), traced; [Dispatch.handle_line] in-process; the socket
   round trip from the untraced socket run. The paired rung feeds three
   sessions request by request, through [handle_line] and through the
   decomposed calls traced and untraced: their differences are the
   dispatcher's own work and the tracing overhead. *)

open Adt
module Session = Engine.Session

let session ?store lib =
  Session.create ?store ~env:(Library.to_env lib) (Library.specs lib)

(* Persists [(spec, term)] normal forms into a store at [dir] through the
   engine's own session API, as a server would have. *)
let prefill lib items ~dir =
  let store = Persist.Store.open_ dir in
  let s = session ~store lib in
  List.iter
    (fun (spec, src) ->
      let entry = Option.get (Session.find s spec) in
      let term = Oracle.parse_term (Session.entry_spec entry) src in
      let value, steps = Session.with_interp entry (fun i -> Interp.eval_count i term) in
      Session.persist_record s entry term value steps)
    items;
  Session.persist_flush s;
  Persist.Store.close store

(* Requests replayed per rung: enough for steady medians, few enough that
   the rungs take seconds. *)
let replay_cap = function
  | Gen.Warm_mix -> 30_000
  | Gen.Cold_rewrite -> 2_000
  | Gen.Store_churn -> 2_000
  | Gen.Author_check -> 300

(* {1 The decomposed replay} *)

type probe = {
  spans : Spans.t;
  on : bool;  (** Record spans; off, the same calls run unrecorded. *)
  mutable steps : int;
  mutable bytes_written : int;
  mutable kept : int;  (** Reused obligations over document edits. *)
  mutable rechecked : int;
  files : (string, string) Hashtbl.t;  (** Entry file by specification name. *)
}

let probe ~on =
  {
    spans = Spans.create (); on; steps = 0; bytes_written = 0; kept = 0; rechecked = 0;
    files = Hashtbl.create 8;
  }

let time p ~name ~parent ~req f =
  if p.on then Spans.time p.spans ~name ~parent ~req f else f ()

(* the entry file a session's store writes for a specification: a flush
   replaces it (tmpfile + rename), so a new inode marks one *)
let entry_file store spec = Persist.Store.entry_path store ~digest:(Spec_digest.spec spec)

let inode path =
  match Unix.stat path with
  | st -> Some (st.Unix.st_ino, st.Unix.st_size)
  | exception Unix.Unix_error _ -> None

let reply_of = function
  | Ok p -> Engine.Protocol.Ok_response p
  | Error (code, message) -> Engine.Protocol.Error_response { code; message }

(* One request through the decomposed calls; returns the rendered reply. *)
let decomposed p s ~inodes ~req (item : Gen.item) =
  let store = Session.store s in
  let root = if p.on then Spans.open_ p.spans ~name:"request" ~parent:(-1) ~req else -1 in
  let time name f = time p ~name ~parent:root ~req f in
  let parse spec ?vars src =
    time "parser.term" (fun () -> Parser.parse_term spec ?vars src)
  in
  let parsed = time "protocol.parse" (fun () -> Engine.Protocol.parse item.Gen.line) in
  let spec_of name = Option.get (Session.find s name) in
  let payload =
    match parsed with
    | Ok (Some (Engine.Protocol.Normalize { spec; term; fuel })) -> (
      let entry = spec_of spec in
      let sp = Session.entry_spec entry in
      match parse sp term with
      | Error _ -> Error ("parse", term)
      | Ok term -> (
        let value, steps =
          match time "persist.find" (fun () -> Session.persist_find entry term) with
          | Some (value, _) -> (value, 0)
          | None ->
            let fuel = Engine.Limits.effective_fuel (Session.limits s) fuel in
            let value, steps =
              time "interp.eval" (fun () ->
                  Session.with_interp entry (fun i -> Interp.eval_count ~fuel i term))
            in
            p.steps <- p.steps + steps;
            (match store with
            | None -> ()
            | Some store ->
              let t0 = Clock.now_ns () in
              Session.persist_record s entry term value steps;
              let t1 = Clock.now_ns () in
              let flushed =
                p.on
                &&
                let file =
                  match Hashtbl.find_opt p.files spec with
                  | Some f -> f
                  | None ->
                    (* the name costs a digest of the specification *)
                    let f = entry_file store sp in
                    Hashtbl.replace p.files spec f;
                    f
                in
                match (Hashtbl.find_opt inodes file, inode file) with
                | prev, Some (ino, size) when prev <> Some ino ->
                  Hashtbl.replace inodes file ino;
                  p.bytes_written <- p.bytes_written + size;
                  true
                | _ -> false
              in
              if p.on then
                ignore
                  (Spans.add p.spans
                     ~name:(if flushed then "persist.flush" else "persist.record")
                     ~start:t0 ~stop:t1 ~parent:root ~req));
            (value, steps)
        in
        match value with
        | Interp.Diverged -> Error ("fuel", "diverged")
        | v ->
          Ok (Fmt.str "normalize steps=%d %s" steps
                (Engine.Protocol.sanitize (Fmt.str "%a" Interp.pp_value v)))))
    | Ok (Some (Engine.Protocol.Check { spec })) ->
      let sp = Session.entry_spec (spec_of spec) in
      let comp = time "core.completeness" (fun () -> Completeness.check sp) in
      let cons = time "core.consistency" (fun () -> Consistency.check sp) in
      Ok
        (Fmt.str "check %s complete=%b consistent=%b missing=%d critical_pairs=%d"
           spec (Completeness.is_complete comp) (Consistency.is_consistent sp cons)
           (List.length (Completeness.missing comp))
           (List.length cons.Consistency.pairs))
    | Ok (Some (Engine.Protocol.Lint { spec })) ->
      let sp = Session.entry_spec (spec_of spec) in
      let diags = time "analysis.lint" (fun () -> Analysis.Lint.run sp) in
      Ok (Fmt.str "lint %s findings=%d" spec (List.length diags))
    | Ok (Some (Engine.Protocol.Skeletons { spec })) ->
      let sp = Session.entry_spec (spec_of spec) in
      let prompts = time "core.heuristics" (fun () -> Heuristics.prompts sp) in
      Ok (Fmt.str "skeletons %s missing=%d" spec (List.length prompts))
    | Ok (Some (Engine.Protocol.Prove { spec; vars; lhs; rhs; fuel })) -> (
      let sp = Session.entry_spec (spec_of spec) in
      let vars = List.map (fun (n, sort) -> (n, Sort.v sort)) vars in
      match (parse sp ~vars lhs, parse sp ~vars rhs) with
      | Ok lhs, Ok rhs -> (
        let fuel =
          Engine.Limits.effective_fuel (Session.limits s)
            (Some (Option.value ~default:Proof.default_fuel fuel))
        in
        match time "proof.prove" (fun () -> Proof.prove (Proof.config ~fuel sp) (lhs, rhs)) with
        | Proof.Proved pr ->
          Ok (Fmt.str "prove %s proved size=%d depth=%d" spec (Proof.proof_size pr)
                (Proof.proof_depth pr))
        | Proof.Unknown _ -> Ok (Fmt.str "prove %s unknown" spec))
      | _ -> Error ("parse", item.Gen.line))
    | Ok (Some (Engine.Protocol.Session_open { spec })) -> (
      let source = Pretty.source_of_spec (Session.entry_spec (spec_of spec)) in
      match
        time "docsession.open" (fun () ->
            Docsession.Manager.open_doc (Session.docs s) ~name:spec ~source)
      with
      | Ok d -> Ok (Fmt.str "session-open %s version=%d" spec d.Docsession.Manager.version)
      | Error e -> Error ("parse", e))
    | Ok (Some (Engine.Protocol.Session_edit { spec; _ })) -> (
      let source = String.concat "\n" item.Gen.body in
      match
        time "docsession.edit" (fun () ->
            Docsession.Manager.edit (Session.docs s) ~name:spec ~source)
      with
      | Ok d ->
        let sum = d.Docsession.Manager.summary in
        p.kept <- p.kept + sum.Docsession.Manager.reused;
        p.rechecked <- p.rechecked + sum.Docsession.Manager.checked;
        Ok (Fmt.str "session-edit %s version=%d cone=%d" spec d.Docsession.Manager.version
              sum.Docsession.Manager.cone)
      | Error e -> Error ("parse", e))
    | _ -> Error ("protocol", item.Gen.line)
  in
  let rendered = time "protocol.render" (fun () -> Engine.Protocol.render (reply_of payload)) in
  if p.on then Spans.close p.spans root;
  rendered

(* {1 Rung processes} *)

type rung = Setup | Dispatch | Traced | Paired

let rungs = [ ("setup", Setup); ("dispatch", Dispatch); ("traced", Traced); ("paired", Paired) ]
let rung_name r = fst (List.find (fun (_, r') -> r' = r) rungs)
let rung_of_string s = List.assoc_opt s rungs
let result_file run_dir r = Printf.sprintf "%s/rung-%s.txt" run_dir (rung_name r)

(* Readings: one line per name, its values separated by spaces. *)
let write_readings path readings =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (name, values) ->
          output_string oc name;
          Array.iter (fun v -> Printf.fprintf oc " %.17g" v) values;
          output_char oc '\n')
        readings)

let read_readings path =
  let h = Hashtbl.create 64 in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | name :: values when name <> "" ->
           Hashtbl.replace h name (Array.of_list (List.map float_of_string values))
         | _ -> ());
  h

let body_reader (item : Gen.item) =
  let rest = ref item.Gen.body in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
      rest := tl;
      Some l

(* [Dispatch.handle_line]; returns the reply line, or "" for none *)
let handle s (item : Gen.item) =
  match Engine.Dispatch.handle_line ~read_line:(body_reader item) s item.Gen.line with
  | Engine.Dispatch.Reply r -> r
  | Engine.Dispatch.Silent | Engine.Dispatch.Closed -> ""

(* 1 when a reply was served without rewriting (a stored or memoized
   normal form reports no steps), else 0. On store-churn, which requests
   hit the store depends on when a collection drops a weakly interned
   key (see README.md), so two replays of one stream can serve a request
   differently; only requests served alike are compared across them. *)
let stepless reply = if Oracle.starts_with ~prefix:"ok normalize steps=0 " reply then 1. else 0.

let seconds f =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (f ()));
  Int64.to_float (Int64.sub (Clock.now_ns ()) t0) *. 1e-9

let median_of reps f = Stats.median (Array.init reps (fun _ -> f ()))

(* The body of a rung process: replays the first [count] requests of the
   workload's stream on a fresh session and writes the readings. *)
let rung r ~files ~pristine ~run_dir (g : Gen.t) ~count =
  let lib = Oracle.load_library files in
  let next = g.Gen.stream () in
  let items = Array.init count (fun _ -> next ()) in
  let fresh ?(tag = "") () =
    match pristine with
    | None -> session lib
    | Some pristine ->
      let dir = Printf.sprintf "%s/store-%s%s" run_dir (rung_name r) tag in
      Fs.copy_dir pristine dir;
      session ~store:(Persist.Store.open_ dir) lib
  in
  let close s =
    Session.persist_flush s;
    Option.iter Persist.Store.close (Session.store s)
  in
  let scalar name v = (name, [| v |]) in
  let readings =
    match r with
    | Setup ->
      (* set-up layers, each the median of several repetitions *)
      [
        scalar "spec_load_s" (median_of 5 (fun () -> seconds (fun () -> Oracle.load_library files)));
        scalar "compile_s"
          (median_of 5 (fun () ->
               seconds (fun () -> List.map Rewrite.of_spec (Library.specs lib))));
        scalar "load_s"
          (match pristine with
          | None -> 0.
          | Some pristine ->
            median_of 3 (fun () ->
                let dir = run_dir ^ "/store-load" in
                Fs.copy_dir pristine dir;
                let t0 = Clock.now_ns () in
                let store = Persist.Store.open_ dir in
                ignore (Sys.opaque_identity (session ~store lib));
                let t1 = Clock.now_ns () in
                Persist.Store.close store;
                Int64.to_float (Int64.sub t1 t0) *. 1e-9));
      ]
    | Dispatch ->
      let s = fresh () in
      List.iter (fun item -> ignore (handle s item)) g.Gen.setup;
      let c0 = Session.cache_totals s and p0 = Session.persist_totals s in
      let g0 = Gc.quick_stat () and _, i0 = Term.intern_stats () in
      let classes = Array.make (Array.length items) 0. in
      let handle_us =
        Array.mapi
          (fun i item ->
            let t0 = Clock.now_ns () in
            let reply = handle s item in
            let us = Clock.us_between t0 (Clock.now_ns ()) in
            classes.(i) <- stepless reply;
            us)
          items
      in
      let g1 = Gc.quick_stat () and _, i1 = Term.intern_stats () in
      let c1 = Session.cache_totals s and p1 = Session.persist_totals s in
      close s;
      let ph, pm =
        match (p0, p1) with
        | Some a, Some b -> (b.Session.hits - a.Session.hits, b.Session.misses - a.Session.misses)
        | _ -> (0, 0)
      in
      [
        ("handle_us", handle_us);
        ("handle_stepless", classes);
        scalar "gc_minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
        scalar "gc_major" (float (g1.Gc.major_collections - g0.Gc.major_collections));
        scalar "interned" (float (i1 - i0));
        scalar "memo_hits" (float (c1.Session.hits - c0.Session.hits));
        scalar "memo_misses" (float (c1.Session.misses - c0.Session.misses));
        scalar "memo_evictions" (float (c1.Session.evictions - c0.Session.evictions));
        scalar "persist_hits" (float ph);
        scalar "persist_misses" (float pm);
      ]
    | Paired ->
      (* three fresh sessions in one process, fed request by request in a
         rotating order: [handle_line], the decomposed calls traced, and
         the decomposed calls untraced. Interference from outside the
         benchmark, and the intern-table work the first of them does for
         the others, land on all three alike, so their per-request
         differences are the dispatcher's own work and the tracing
         overhead *)
      let side run tag =
        let s = fresh ~tag () in
        List.iter (fun item -> ignore (run s item)) g.Gen.setup;
        (s, run s, Array.make (Array.length items) 0., Array.make (Array.length items) 0.)
      in
      let decomposed_side on s =
        let p = probe ~on and inodes = Hashtbl.create 8 in
        fun item -> decomposed p s ~inodes ~req:(-1) item
      in
      let sides =
        [| side handle "-handle"; side (decomposed_side true) "-traced";
           side (decomposed_side false) "-untraced" |]
      in
      Array.iteri
        (fun i item ->
          for k = 0 to 2 do
            let _, run, us, classes = sides.((i + k) mod 3) in
            let t0 = Clock.now_ns () in
            let reply = run item in
            us.(i) <- Clock.us_between t0 (Clock.now_ns ());
            classes.(i) <- stepless reply
          done)
        items;
      Array.iter (fun (s, _, _, _) -> close s) sides;
      let us k = let _, _, us, _ = sides.(k) in us in
      let alike =
        let _, _, _, a = sides.(0) and _, _, _, b = sides.(1) and _, _, _, c = sides.(2) in
        Array.init (Array.length items) (fun i -> if a.(i) = b.(i) && b.(i) = c.(i) then 1. else 0.)
      in
      [
        ("paired_handle_us", us 0); ("paired_traced_us", us 1); ("paired_untraced_us", us 2);
        ("paired_alike", alike);
      ]
    | Traced ->
      let s = fresh () in
      let store = Session.store s in
      let inodes = Hashtbl.create 8 in
      List.iter (fun item -> ignore (decomposed (probe ~on:false) s ~inodes ~req:(-1) item)) g.Gen.setup;
      let p = probe ~on:true in
      (* the current inode of every entry file, so that only the replay's
         own flushes count as written bytes *)
      let entry_files =
        match store with
        | None -> []
        | Some store -> List.map (entry_file store) (Library.specs lib)
      in
      List.iter
        (fun f -> Option.iter (fun (ino, _) -> Hashtbl.replace inodes f ino) (inode f))
        entry_files;
      Array.iteri
        (fun req (item : Gen.item) ->
          ignore (decomposed p s ~inodes ~req item);
          (* the decision passes on their own, outside the request: lint
             runs them inside its span *)
          match Engine.Protocol.parse item.Gen.line with
          | Ok (Some (Engine.Protocol.Lint { spec })) ->
            let sp = Session.entry_spec (Option.get (Session.find s spec)) in
            ignore
              (Spans.time p.spans ~name:"analysis.verify" ~parent:(-1) ~req (fun () ->
                   Analysis.Lint.verify sp))
          | _ -> ())
        items;
      (* the flush a server makes when the connection ends *)
      if store <> None then begin
        let f0 = Clock.now_ns () in
        Session.persist_flush s;
        let f1 = Clock.now_ns () in
        List.iter
          (fun f ->
            match (Hashtbl.find_opt inodes f, inode f) with
            | prev, Some (ino, size) when prev <> Some ino -> p.bytes_written <- p.bytes_written + size
            | _ -> ())
          entry_files;
        ignore (Spans.add p.spans ~name:"persist.flush" ~start:f0 ~stop:f1 ~parent:(-1) ~req:(-1))
      end;
      close s;
      let spans = p.spans in
      let names = Hashtbl.create 16 in
      for i = 0 to Spans.length spans - 1 do
        Hashtbl.replace names (Spans.get spans i).Spans.name ()
      done;
      Spans.write spans
        (Printf.sprintf ".bench_run/spans-%s.tsv" (Gen.workload_name g.Gen.workload));
      [
        scalar "steps" (float p.steps);
        scalar "bytes_written" (float p.bytes_written);
        scalar "kept" (float p.kept);
        scalar "rechecked" (float p.rechecked);
      ]
      @ Hashtbl.fold (fun name () acc -> ("span:" ^ name, Spans.durations_us spans name) :: acc) names []
  in
  write_readings (result_file run_dir r) readings

(* {1 The parent: the per-layer metrics} *)

let run_rung ~self_exe ~workload ~seed ~run_dir ~pristine ~count r =
  let args =
    [ self_exe; "--rung"; rung_name r; "--workload"; Gen.workload_name workload;
      "--seed"; string_of_int seed; "--count"; string_of_int count; "--run-dir"; run_dir ]
    @ match pristine with Some d -> [ "--pristine"; d ] | None -> []
  in
  (* the rung's own output goes to standard error, so that standard
     output keeps the parent's report and its last-line result *)
  let pid = Unix.create_process self_exe (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> read_readings (result_file run_dir r)
  | _ -> failwith (Printf.sprintf "rung %s failed" (rung_name r))

(* Runs the rungs over the first [count] requests of the stream (those
   whose socket round trips are [socket_us]) and returns the per-layer
   metrics. *)
let run ~self_exe ~pristine ~run_dir (g : Gen.t) ~socket_us ~socket_stepless =
  let m = Array.length socket_us in
  let fm = float (max 1 m) in
  let get = run_rung ~self_exe ~workload:g.Gen.workload ~seed:g.Gen.seed ~run_dir ~pristine ~count:m in
  let setup = get Setup and b = get Dispatch and d = get Traced and o = get Paired in
  let one h name = (Hashtbl.find h name).(0) in
  let arr h name = Option.value ~default:[||] (Hashtbl.find_opt h name) in
  let handle_us = arr b "handle_us" in
  let durations name = arr d ("span:" ^ name) in
  let has name = Array.length (durations name) > 0 in
  let med name = if has name then Stats.median (durations name) else 0. in
  let eval_total_s = Array.fold_left ( +. ) 0. (durations "interp.eval") *. 1e-6 in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  (* the entries of [a] at the requests [keep] marks *)
  let only keep a =
    Array.of_list
      (List.filter_map (fun i -> if keep.(i) = 1. then Some a.(i) else None) (List.init m Fun.id))
  in
  let mean a = Array.fold_left ( +. ) 0. a /. float (max 1 (Array.length a)) in
  (* Every figure that compares two replays uses only the requests they
     served alike, and interquartile means: a store flush (~11 ms) lands
     on a different request in each process or session, so a plain mean
     swings with the flush count. The transport is a difference of
     interquartile means: the socket run and the dispatch rung are
     separate processes whose GC work lands on different requests. The
     paired figures are interquartile means of per-request differences:
     the side that meets a term first pays its interning for the
     others. *)
  let socket_alike =
    Array.map2 (fun a b -> if a = b then 1. else 0.) socket_stepless (arr b "handle_stepless")
  in
  let transport =
    Stats.iqm (only socket_alike socket_us) -. Stats.iqm (only socket_alike handle_us)
  in
  let alike = arr o "paired_alike" in
  let untraced = only alike (arr o "paired_untraced_us") in
  let paired_minus name = Stats.iqm (Array.map2 ( -. ) (only alike (arr o name)) untraced) in
  let untraced_us = Stats.iqm untraced in
  let overhead_us = paired_minus "paired_traced_us" in
  let steps = one d "steps" in
  let rewrites = has "interp.eval" and stored = pristine <> None in
  (* (name, value, unit, whether this workload exercises the layer) *)
  let metrics =
    [
      ("server.transport_us", transport, "us", true);
      ("dispatch.handle_us", Stats.median handle_us, "us", true);
      ("dispatch.self_us", paired_minus "paired_handle_us", "us", true);
      ("protocol.parse_us", med "protocol.parse", "us", true);
      ("protocol.render_us", med "protocol.render", "us", true);
      ("parser.term_us", med "parser.term", "us", has "parser.term");
      ("parser.spec_load_s", one setup "spec_load_s", "s", true);
      ("interp.eval_us", med "interp.eval", "us", rewrites);
      ("rewrite.steps_per_req", steps /. fm, "count", rewrites);
      ("rewrite.steps_per_s", (if eval_total_s > 0. then steps /. eval_total_s else 0.), "1/s", rewrites);
      ("rewrite.memo_hit_ratio", ratio (one b "memo_hits") (one b "memo_misses"), "ratio", rewrites);
      ("rewrite.memo_evictions_per_req", one b "memo_evictions" /. fm, "count", rewrites);
      ("rewrite.compile_s", one setup "compile_s", "s", true);
      ("term.interned_per_req", one b "interned" /. fm, "count", true);
      ("gc.minor_words_per_req", one b "gc_minor_words" /. fm, "words", true);
      ("gc.major_collections_per_kreq", one b "gc_major" *. 1000. /. fm, "count", true);
      ("persist.find_us", med "persist.find", "us", stored);
      ("persist.record_us", med "persist.record", "us", stored);
      ("persist.flush_us", med "persist.flush", "us", stored);
      ("persist.bytes_written_per_req", one d "bytes_written" /. fm, "B", stored);
      ("persist.hit_ratio", ratio (one b "persist_hits") (one b "persist_misses"), "ratio", stored);
      ("persist.load_s", one setup "load_s", "s", stored);
      ("analysis.lint_us", med "analysis.lint", "us", has "analysis.lint");
      ("analysis.verify_us", med "analysis.verify", "us", has "analysis.verify");
      ("core.completeness_us", med "core.completeness", "us", has "core.completeness");
      ("core.consistency_us", med "core.consistency", "us", has "core.consistency");
      ("core.heuristics_us", med "core.heuristics", "us", has "core.heuristics");
      ("proof.prove_us", med "proof.prove", "us", has "proof.prove");
      ("docsession.edit_us", med "docsession.edit", "us", has "docsession.edit");
      ("docsession.reuse_ratio", ratio (one d "kept") (one d "rechecked"), "ratio", has "docsession.edit");
      ("trace.overhead_us", overhead_us, "us", true);
      ("trace.overhead_frac", (if untraced_us > 0. then overhead_us /. untraced_us else 0.), "ratio", true);
    ]
  in
  Fmt.pr "@.traced replay: the first %d requests, each rung a fresh process and session; spans in .bench_run/spans-%s.tsv@."
    m (Gen.workload_name g.Gen.workload);
  Fmt.pr "ladder   interp.eval p50=%.2f us -> Dispatch.handle_line p50=%.2f us (mean %.2f) -> socket round trip p50=%.2f us (mean %.2f)@."
    (med "interp.eval") (Stats.median handle_us) (mean handle_us) (Stats.median socket_us)
    (mean socket_us);
  Fmt.pr "tracing  decomposed calls %.3f us untraced, %+.3f us traced (interquartile means per request)@."
    untraced_us overhead_us;
  Fmt.pr "compared transport over %d of %d requests, paired figures over %d, served alike on every side@."
    (Array.length (only socket_alike socket_us)) m (Array.length untraced);
  List.iter
    (fun (name, v, unit, exercised) ->
      if exercised then Fmt.pr "%-34s %14.4f %6s@." name v unit
      else Fmt.pr "%-34s %14s %6s  (not exercised by this workload; reported as 0)@." name "-" unit)
    metrics;
  List.map (fun (name, v, unit, _) -> (name, v, unit)) metrics
