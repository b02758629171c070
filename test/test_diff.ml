(* Differential testing of the rewrite engines.

   Both matching engines must be observably identical on every term:

   - [Rewrite.Reference] — naive linear rule scan, deep structural
     equality (the oracle);
   - [Rewrite.Automaton] — rules compiled into a matching automaton
     ([Match_tree]), the default engine.

   Random well-sorted terms are generated over the FULL signature of each
   corpus specification ([Helpers.Corpus_gen]), so the tests exercise rule
   dispatch, strict error propagation, lazy conditionals, and stuck terms
   alike. Every engine must produce the same normal form (physically and —
   independently — structurally), the same step count, the same error-ness,
   and exhaust fuel on exactly the same terms; the memoized path must agree
   under every engine as well.

   The default run checks 1,000 terms per corpus spec; set
   [TEST_DIFF_LONG=1] (the weekly CI fuzz job does) to check 5,000. *)

open Adt
open Helpers
open Adt_specs

let long_mode =
  match Sys.getenv_opt "TEST_DIFF_LONG" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let count_per_spec = if long_mode then 5_000 else 1_000
let fuel = 3_000
let tight_fuel = 12

(* the pinned entry points: each normalizes with one fixed engine no
   matter how the system itself is pinned *)
let engines =
  [
    ( "reference",
      fun ~strategy ~fuel sys t ->
        Rewrite.Reference.normalize_count ~strategy ~fuel sys t );
    ( "automaton",
      fun ~strategy ~fuel sys t ->
        Rewrite.Automaton.normalize_count ~strategy ~fuel sys t );
  ]

let catch_fuel f =
  match f () with
  | nf, steps -> Some (nf, steps)
  | exception Rewrite.Out_of_fuel _ -> None

(* the agreement relation the whole harness rests on: same normal form
   (both physically and — independently — structurally), same step count,
   same error-ness, and fuel exhaustion on one engine iff on the
   other *)
let agree sys strategy ~fuel t =
  let outcomes =
    List.map
      (fun (_, normalize) ->
        catch_fuel (fun () -> normalize ~strategy ~fuel sys t))
      engines
  in
  match outcomes with
  | [] -> true
  | first :: rest ->
    List.for_all
      (fun outcome ->
        match (first, outcome) with
        | None, None -> true
        | Some (nf0, n0), Some (nf, n) ->
          Term.equal nf0 nf
          && Term.structural_equal nf0 nf
          && n0 = n
          && Bool.equal (Term.is_error nf0) (Term.is_error nf)
        | _ -> false)
      rest

(* the memoized path may take fewer steps (cache hits) but must reach the
   same normal form whenever the plain path completes — under every
   engine, since [normalize_memo] dispatches on the system's pin *)
let memo_agrees sys t =
  match
    catch_fuel (fun () ->
        Rewrite.Reference.normalize_count ~strategy:Rewrite.Innermost ~fuel
          sys t)
  with
  | None -> true
  | Some (nf, _) ->
    List.for_all
      (fun engine ->
        let sys = Rewrite.with_engine engine sys in
        let memo = Rewrite.Memo.create () in
        match Rewrite.normalize_memo ~fuel ~memo sys t with
        | nf' -> Term.equal nf nf'
        | exception Rewrite.Out_of_fuel _ -> false)
      [ Rewrite.Reference; Rewrite.Automaton ]

let diff_case spec =
  let ctx = Corpus_gen.ctx_of spec in
  let sys = Rewrite.of_spec spec in
  qcheck ~count:count_per_spec
    (Fmt.str "reference = automaton on %s" (Spec.name spec))
    (Corpus_gen.term_gen ctx)
    (fun t ->
      agree sys Rewrite.Innermost ~fuel t
      && agree sys Rewrite.Outermost ~fuel t
      (* a deliberately tight budget, so both engines routinely hit the
         fuel wall and must agree on exactly WHEN they hit it *)
      && agree sys Rewrite.Innermost ~fuel:tight_fuel t
      && memo_agrees sys t)

let suite = List.map diff_case Corpus.all
