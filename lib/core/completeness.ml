type case = { pattern : Term.t; covered_by : string list }
type op_report = { op : Op.t; cases : case list; unconstrained : bool }
type report = { spec_name : string; op_reports : op_report list }

let axiom_label ax =
  if String.equal (Axiom.name ax) "" then Fmt.str "%a" Axiom.pp ax
  else Axiom.name ax

let lhs_args ax =
  match Term.view (Axiom.lhs ax) with Term.App (_, args) -> args | _ -> []

(* the matrix rows: executable axioms whose argument patterns are
   constructor contexts; an argument headed by an observer, [error] or
   [if-then-else] never matches a constructor instance, and a
   non-executable axiom never fires. Non-left-linear axioms stay out of the
   matrix (it would over-approximate them) and only label the cases they
   match. Axioms travel with their index in [axioms]. *)
let partition spec axioms =
  List.mapi (fun i ax -> (i, ax)) axioms
  |> List.filter (fun (_, ax) ->
         Axiom.is_executable ax
         && List.for_all (Spec.is_constructor_term spec) (lhs_args ax))
  |> List.partition (fun (_, ax) -> Axiom.is_left_linear ax)

let matrix_axioms spec op =
  let rows, labelling = partition spec (Spec.axioms_for op spec) in
  (List.map snd rows, List.map snd labelling)

let check_op spec op =
  let axioms = Spec.axioms_for op spec in
  let sorts = Op.args op in
  let general =
    List.mapi
      (fun i sort ->
        Term.var
          (Fmt.str "%s%d" (String.lowercase_ascii (Sort.name sort)) (i + 1))
          sort)
      sorts
  in
  let missing args = { pattern = Term.app op args; covered_by = [] } in
  let split_at = List.find_index (fun s -> Spec.has_constructors s spec) sorts in
  let cases =
    match (axioms, split_at) with
    | [], None -> [ missing general ]
    | [], Some k ->
      (* an operation with no axioms still gets its first
         constructor-bearing argument split one level, so the report lists
         the constructor cases a complete axiomatisation must cover (the
         shape the paper's prompting system presents) *)
      let avoid = List.fold_left (fun acc t -> Term.var_set t acc) [] general in
      List.map
        (fun c ->
          let split = Pattern_matrix.expand ~avoid c in
          missing (List.mapi (fun i t -> if i = k then split else t) general))
        (Spec.constructors_of_sort (List.nth sorts k) spec)
    | _ ->
      let rows, labelling = partition spec axioms in
      let m =
        Pattern_matrix.create spec ~sorts
          ~rows:(List.map (fun (_, ax) -> lhs_args ax) rows)
      in
      let row_axiom = Array.of_list (List.map fst rows) in
      let labels = Array.of_list (List.map axiom_label axioms) in
      List.map
        (fun (args, ix) ->
          let pattern = Term.app op args in
          let by_match =
            List.filter_map
              (fun (i, ax) ->
                if Subst.matches ~pattern:(Axiom.lhs ax) pattern then Some i
                else None)
              labelling
          in
          {
            pattern;
            covered_by =
              List.map (Array.get labels)
                (List.sort_uniq Int.compare
                   (List.map (Array.get row_axiom) ix @ by_match));
          })
        (Pattern_matrix.cases m general)
  in
  (* a parameter operation: every argument is of a sort without
     constructors, so no ground instance exists to cover *)
  { op; cases; unconstrained = axioms = [] && sorts <> [] && split_at = None }

let check spec =
  {
    spec_name = Spec.name spec;
    op_reports = List.map (check_op spec) (Spec.observers spec);
  }

let is_complete report =
  List.for_all
    (fun r ->
      r.unconstrained || List.for_all (fun c -> c.covered_by <> []) r.cases)
    report.op_reports

let missing report =
  List.concat_map
    (fun r ->
      if r.unconstrained then []
      else
        List.filter_map
          (fun c -> if c.covered_by = [] then Some c.pattern else None)
          r.cases)
    report.op_reports

let pp_case ppf c =
  match c.covered_by with
  | [] -> Fmt.pf ppf "@[<h>%a : MISSING@]" Term.pp c.pattern
  | [ a ] -> Fmt.pf ppf "@[<h>%a : covered by %s@]" Term.pp c.pattern a
  | several ->
    Fmt.pf ppf "@[<h>%a : covered by %a (overlap)@]" Term.pp c.pattern
      Fmt.(list ~sep:comma string)
      several

let pp_op_report ppf r =
  if r.unconstrained then
    Fmt.pf ppf "@[<v 2>%a: unconstrained (parameter operation)@]" Op.pp r.op
  else
    Fmt.pf ppf "@[<v 2>%a:@,%a@]" Op.pp r.op
      Fmt.(list ~sep:cut pp_case)
      r.cases

let pp_report ppf report =
  let verdict = if is_complete report then "sufficiently complete" else "NOT sufficiently complete" in
  Fmt.pf ppf "@[<v>spec %s is %s@,%a@]" report.spec_name verdict
    Fmt.(list ~sep:cut pp_op_report)
    report.op_reports
