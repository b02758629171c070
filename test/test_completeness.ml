open Adt
open Helpers
open Adt_specs

let test_nat_complete () =
  let report = Completeness.check nat_spec in
  Alcotest.(check bool) "complete" true (Completeness.is_complete report);
  Alcotest.(check (list term_testable)) "nothing missing" []
    (Completeness.missing report)

let test_paper_specs_complete () =
  List.iter
    (fun (name, spec) ->
      let report = Completeness.check spec in
      if not (Completeness.is_complete report) then
        Alcotest.failf "%s not sufficiently complete: %a" name
          Fmt.(list ~sep:comma Term.pp)
          (Completeness.missing report))
    [
      ("Queue", Queue_spec.spec);
      ("BoundedQueue", Bounded_queue_spec.spec);
      ("Stack", Stack_spec.default.Stack_spec.spec);
      ("Array", Array_spec.default.Array_spec.spec);
      ("Symboltable", Symboltable_spec.spec);
      ("Knowlist", Knowlist_spec.spec);
      ("Symboltable_knows", Symboltable_knows_spec.spec);
      ("Identifier", Identifier.spec);
      ("Attributes", Attributes.spec);
      ("Bool", Builtins.bool_spec);
      ("Nat", Builtins.nat_spec);
    ]

let missing_of spec = Completeness.missing (Completeness.check spec)

let test_detects_missing_boundary () =
  let broken = Spec.without_axiom "3" Queue_spec.spec in
  match missing_of broken with
  | [ t ] -> Alcotest.(check string) "the missing case" "FRONT(NEW)" (Term.to_string t)
  | other ->
    Alcotest.failf "expected one missing case, got %a"
      Fmt.(list ~sep:comma Term.pp)
      other

let test_detects_missing_recursive_case () =
  let broken = Spec.without_axiom "6" Queue_spec.spec in
  match missing_of broken with
  | [ t ] ->
    Alcotest.(check string) "the missing case" "REMOVE(ADD(queue, item))"
      (Term.to_string t)
  | other ->
    Alcotest.failf "expected one missing case, got %a"
      Fmt.(list ~sep:comma Term.pp)
      other

let test_detects_multiple_missing () =
  (* with ALL of RETRIEVE's axioms gone, the checker expands the
     constructor cases a complete axiomatisation must cover *)
  let broken =
    Spec.without_axiom "7"
      (Spec.without_axiom "8" (Spec.without_axiom "9" Symboltable_spec.spec))
  in
  Alcotest.(check int) "three missing" 3 (List.length (missing_of broken));
  (* with two of them gone, the remaining axiom guides the split *)
  let broken2 = Spec.without_axiom "7" (Spec.without_axiom "8" Symboltable_spec.spec) in
  Alcotest.(check int) "two missing" 2 (List.length (missing_of broken2))

let test_second_argument_splitting () =
  (* an observer discriminating on its second argument *)
  let sg =
    Signature.add_op
      (Op.v "guard" ~args:[ nat; nat ] ~result:nat)
      base_signature
  in
  let guard a b = Term.app (Signature.find_op_exn "guard" sg) [ a; b ] in
  let spec =
    Spec.v ~name:"G" ~signature:sg ~constructors:[ "z"; "s" ]
      ~axioms:(nat_axioms @ [ Axiom.v ~name:"g0" ~lhs:(guard (v "a") z) ~rhs:z () ])
      ()
  in
  match missing_of spec with
  | [ t ] ->
    Alcotest.(check string) "missing successor case" "guard(n1, s(n))"
      (Term.to_string t)
  | other ->
    Alcotest.failf "expected one missing case, got %a"
      Fmt.(list ~sep:comma Term.pp)
      other

let test_general_lhs_covers_everything () =
  (* REPLACE(stk, arr) = ... has a fully general left-hand side *)
  let stack = Stack_spec.default in
  let report = Completeness.check_op stack.Stack_spec.spec
      (Spec.op_exn stack.Stack_spec.spec "REPLACE")
  in
  Alcotest.(check int) "single covered case" 1 (List.length report.Completeness.cases);
  Alcotest.(check bool) "covered" true
    (List.for_all (fun c -> c.Completeness.covered_by <> []) report.Completeness.cases)

let test_unconstrained_parameter_op () =
  (* an observer over a sort with no constructors and no axioms *)
  let item = Sort.v "I" in
  let sg =
    Signature.add_op
      (Op.v "weight" ~args:[ item ] ~result:Sort.bool)
      (Signature.add_sort item Signature.empty)
  in
  let spec = Spec.v ~name:"P" ~signature:sg ~axioms:[] () in
  let report = Completeness.check spec in
  Alcotest.(check bool) "still complete" true (Completeness.is_complete report);
  let op_report = List.hd report.Completeness.op_reports in
  Alcotest.(check bool) "flagged unconstrained" true
    op_report.Completeness.unconstrained

let test_constant_without_axioms () =
  (* a constant has one ground instance; with no axiom it has no value *)
  let sg =
    Signature.add_op
      (Op.v "origin" ~args:[] ~result:Sort.bool)
      Signature.empty
  in
  let spec = Spec.v ~name:"P" ~signature:sg ~axioms:[] () in
  let report = Completeness.check spec in
  Alcotest.(check bool) "not complete" false (Completeness.is_complete report);
  Alcotest.(check (list string)) "origin is missing" [ "origin" ]
    (List.map Term.to_string (Completeness.missing report))

let test_overlap_detection () =
  (* a general isz axiom beside the two constructor cases: both cases are
     covered twice *)
  let extra = Axiom.v ~name:"dup" ~lhs:(isz (v "k")) ~rhs:Term.ff () in
  let spec = Spec.with_axioms [ extra ] nat_spec in
  let report = Completeness.check_op spec isz_op in
  Alcotest.(check (list (list string)))
    "each case names both axioms"
    [ [ "iz"; "dup" ]; [ "is"; "dup" ] ]
    (List.map (fun c -> c.Completeness.covered_by) report.Completeness.cases)

let test_non_executable_covers_nothing () =
  (* specs/faulty/free_rhs.adt: [seed] SEED = INC(c) cannot fire (ADT011),
     so SEED is a missing case, as ADT020 reports *)
  match
    Parser.parse_specs ~env:(Library.to_env Library.builtin)
      Test_analysis.free_rhs_src
  with
  | Error e -> Alcotest.failf "parse: %a" Parser.pp_error e
  | Ok specs ->
    let report = Completeness.check (List.hd (List.rev specs)) in
    Alcotest.(check bool) "not complete" false
      (Completeness.is_complete report);
    Alcotest.(check (list string)) "SEED is missing" [ "SEED" ]
      (List.map Term.to_string (Completeness.missing report))

let test_report_rendering () =
  let text = Fmt.str "%a" Completeness.pp_report (Completeness.check nat_spec) in
  Alcotest.(check bool) "mentions verdict" true
    (Astring_contains.contains text "sufficiently complete");
  let broken = Spec.without_axiom "iz" nat_spec in
  let text' = Fmt.str "%a" Completeness.pp_report (Completeness.check broken) in
  Alcotest.(check bool) "mentions MISSING" true
    (Astring_contains.contains text' "MISSING")

let suite =
  [
    case "a complete spec passes" test_nat_complete;
    case "every paper spec is sufficiently complete" test_paper_specs_complete;
    case "missing boundary case found (FRONT(NEW))" test_detects_missing_boundary;
    case "missing recursive case found" test_detects_missing_recursive_case;
    case "several missing cases found" test_detects_multiple_missing;
    case "splitting on a non-first argument" test_second_argument_splitting;
    case "general left-hand sides cover all cases" test_general_lhs_covers_everything;
    case "parameter operations are unconstrained, not incomplete"
      test_unconstrained_parameter_op;
    case "a constant with no axioms is missing" test_constant_without_axioms;
    case "overlapping axioms reported" test_overlap_detection;
    case "a non-executable axiom covers nothing"
      test_non_executable_covers_nothing;
    case "report rendering" test_report_rendering;
  ]
