(* Self-tests of the benchmark's own code: generator determinism, the
   tail percentile rule, the oracle on corrupted replies, self-time
   arithmetic on a hand-built span tree, and the speed probe. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let take n g =
  let next = g.Gen.stream () in
  List.init n (fun _ -> next ())

let test_generator () =
  List.iter
    (fun (name, w) ->
      let a = Gen.make w ~seed:7 and b = Gen.make w ~seed:7 and c = Gen.make w ~seed:8 in
      check (name ^ ": same seed, same files") (a.Gen.files = b.Gen.files);
      check (name ^ ": same seed, same set-up") (a.Gen.setup = b.Gen.setup);
      check (name ^ ": same seed, same prefill") (a.Gen.prefill = b.Gen.prefill);
      check (name ^ ": same seed, same stream") (take 300 a = take 300 b);
      check (name ^ ": a stream restarts") (take 50 a = take 50 a);
      check (name ^ ": another seed, another stream") (take 300 a <> take 300 c))
    Gen.workloads

let test_percentiles () =
  let s = Array.init 1000 (fun i -> float (i + 1)) in
  check "p99 of 1..1000 is 990" (Stats.percentile_sorted s 99. = Some 990.);
  check "n=1000 leaves exactly 10 beyond p99" (Stats.beyond 1000 99. = 10);
  check "n=999 cannot support p99" (not (Stats.supported 999 99.));
  check "n=999 refuses p99" (Stats.percentile_sorted (Array.sub s 0 999) 99. = None);
  check "n=1000 tail is p99" (Stats.tail_percentile 1000 = Some 99.);
  check "n=10000 tail is p99.9" (Stats.tail_percentile 10000 = Some 99.9);
  check "n=100 tail is p90" (Stats.tail_percentile 100 = Some 90.);
  check "n=99 has no tail" (Stats.tail_percentile 99 = None);
  let sum = Stats.summarize (Array.init 2000 (fun i -> float (2000 - i))) in
  check "summary median" (sum.Stats.p50 = 1000.5);
  check "summary p99" (sum.Stats.p99 = Some 1980.);
  check "summary tail" (sum.Stats.tail = Some (99., 1980.));
  check "interquartile mean drops the outer quarters" (Stats.iqm [| 100.; 1.; 2.; 3.; 4.; 5.; 6.; -50. |] = 3.5)

let test_oracle () =
  let g = Gen.make Gen.Warm_mix ~seed:3 in
  let lib = Oracle.load_library g.Gen.files in
  let item = Gen.normalize_line ("Queue", "FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))", "ITEM2") in
  let run replies =
    let o = Oracle.create lib in
    List.iter (fun r -> Oracle.observe o item (Some [ r ])) replies;
    ignore (Oracle.finish o);
    o.Oracle.failed
  in
  check "oracle accepts the right normal form" (run [ "ok normalize steps=6 ITEM2" ] = 0);
  check "oracle ignores step counts" (run [ "ok normalize steps=6 ITEM2"; "ok normalize steps=0 ITEM2" ] = 0);
  check "oracle flags a corrupted normal form" (run [ "ok normalize steps=6 ITEM1" ] = 1);
  check "oracle counts every request of a wrong line" (run [ "ok normalize steps=6 ITEM1"; "ok normalize steps=0 ITEM1" ] = 2);
  check "oracle flags a changed answer" (run [ "ok normalize steps=6 ITEM2"; "ok normalize steps=0 ITEM3" ] = 1);
  check "oracle flags an error reply" (run [ "error internal boom" ] = 1);
  let wrong_model = Gen.normalize_line ("Queue", "FRONT(REMOVE(ADD(ADD(NEW, ITEM1), ITEM2)))", "ITEM1") in
  let o = Oracle.create lib in
  Oracle.observe o wrong_model (Some [ "ok normalize steps=6 ITEM1" ]);
  ignore (Oracle.finish o);
  check "the reference engine catches a reply the model accepts" (o.Oracle.failed = 1);
  (* the second half of the distinct terms is checked in a forked child *)
  let o = Oracle.create lib in
  Oracle.observe o item (Some [ "ok normalize steps=6 ITEM2" ]);
  Oracle.observe o
    (Gen.normalize_line ("Queue", "FRONT(ADD(ADD(NEW, ITEM3), ITEM1))", "ITEM1"))
    (Some [ "ok normalize steps=4 ITEM1" ]);
  ignore (Oracle.finish o);
  check "the reference engine's child catches a reply the model accepts" (o.Oracle.failed = 1);
  let o = Oracle.create lib in
  Oracle.observe o item None;
  check "oracle flags a dropped connection" (o.Oracle.failed = 1);
  let verdict = { Gen.line = "check Queue"; body = []; expect = Gen.Prefix "ok check Queue complete=true " } in
  let o = Oracle.create lib in
  Oracle.observe o verdict (Some [ "ok check Queue complete=true consistent=true" ]);
  Oracle.observe o verdict (Some [ "ok check Queue complete=false consistent=true" ]);
  check "oracle flags a wrong verdict" (o.Oracle.failed = 1)

(* the generator's direct model agrees with the reference engine on
   every normalize workload *)
let test_model () =
  List.iter
    (fun (name, w) ->
      let g = Gen.make w ~seed:11 in
      let o = Oracle.create (Oracle.load_library g.Gen.files) in
      let next = g.Gen.stream () in
      for _ = 1 to 500 do
        let item = next () in
        match item.Gen.expect with
        | Gen.Nf { answer; _ } -> Oracle.observe o item (Some [ "ok normalize steps=0 " ^ answer ])
        | Gen.Prefix _ -> ()
      done;
      ignore (Oracle.finish o);
      check (name ^ ": model answers agree with the reference engine") (o.Oracle.failed = 0))
    [ ("warm-mix", Gen.Warm_mix); ("cold-rewrite", Gen.Cold_rewrite); ("store-churn", Gen.Store_churn) ]

let test_self_time () =
  let t = Spans.create () in
  let add name a b parent = Spans.add t ~name ~start:(Int64.of_int a) ~stop:(Int64.of_int b) ~parent ~req:0 in
  let root = add "root" 0 100 (-1) in
  let a = add "a" 10 40 root in
  let _b = add "b" 30 60 root in
  let _c = add "c" 90 120 root in
  let _g = add "g" 15 20 a in
  let self = Spans.self_times_ns t in
  (* root: 100 minus the union [10,60] + [90,100] of its children *)
  check "root self time" (self.(0) = 40.);
  check "child self time" (self.(1) = 25.);
  check "overlapping sibling self time" (self.(2) = 30.);
  check "leaf past its parent" (self.(3) = 30.);
  check "grandchild self time" (self.(4) = 5.);
  check "durations" (Spans.durations_us t "a" = [| 0.03 |])

let test_cone () =
  let ident = Gen.Ident.make ~rng:(Random.State.make [| 1 |]) 3 in
  let k_of head = let rec go k = if String.equal ident.Gen.Ident.axioms.(k).Gen.Ident.head head then k else go (k + 1) in go 0 in
  check "EQ? edit cone" (Gen.Ident.cone ident (k_of "EQ?") = 12);
  check "NEXT edit cone" (Gen.Ident.cone ident (k_of "NEXT") = 6);
  check "IS_LAST? edit cone" (Gen.Ident.cone ident (k_of "IS_LAST?") = 3)

let test_speed () =
  let partner = ref 0 in
  let slowdown =
    Speed.with_probe (fun p ->
        partner := p.Speed.pid;
        Speed.slowdown p)
  in
  check "the speed probe measures a positive slowdown" (Float.is_finite slowdown && slowdown > 0.);
  check "the speed probe's partner has been waited for"
    (match Unix.waitpid [ Unix.WNOHANG ] !partner with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false)

let () =
  test_generator ();
  test_percentiles ();
  test_oracle ();
  test_model ();
  test_self_time ();
  test_cone ();
  test_speed ();
  if !failures > 0 then exit 1 else print_endline "perfbench self-tests passed"
