open Adt

(* {1 Sufficient completeness (ADT020)} *)

type hole = { hole_op : Op.t; witness : Term.t; decided : bool }
type completeness_report = { c_spec : string; holes : hole list }

(* brute-force confirmation used when non-left-linear axioms are in play:
   a tuple of ground constructor arguments no left-hand side in
   [patterns] matches at the root, if one exists within the size bound *)
let ground_witness spec op patterns ~size =
  let u = Enum.universe spec in
  let arg_sorts = Op.args op in
  let choices = List.map (fun s -> Enum.terms_up_to u s ~size) arg_sorts in
  if List.exists (fun c -> c = []) choices then None
  else begin
    let exception Found of Term.t in
    let check args =
      let t = Term.app op args in
      if not (List.exists (fun p -> Subst.matches ~pattern:p t) patterns) then
        raise (Found t)
    in
    let rec product acc = function
      | [] -> check (List.rev acc)
      | cs :: rest -> List.iter (fun c -> product (c :: acc) rest) cs
    in
    try
      product [] choices;
      None
    with Found t -> Some t
  end

let completeness spec =
  let holes =
    List.filter_map
      (fun op ->
        let r = Completeness.check_op spec op in
        match
          List.find_opt (fun c -> c.Completeness.covered_by = []) r.cases
        with
        | None -> None
        | Some _ when r.unconstrained -> None
        | Some c -> (
          let candidate = Pattern_matrix.instantiate_wildcards spec c.pattern in
          match Completeness.matrix_axioms spec op with
          | _, [] -> Some { hole_op = op; witness = candidate; decided = true }
          | rows, labelling -> (
            (* the non-left-linear axioms may cover instances of the
               candidate; decide by ground enumeration over a small
               universe *)
            match
              ground_witness spec op
                (List.map Axiom.lhs (rows @ labelling))
                ~size:4
            with
            | Some w -> Some { hole_op = op; witness = w; decided = true }
            | None ->
              Some { hole_op = op; witness = candidate; decided = false })))
      (Spec.observers spec)
  in
  { c_spec = Spec.name spec; holes }

let sufficiently_complete r = r.holes = []

(* {1 Termination + confluence analysis (ADT021/ADT022, shared with ADT002)} *)

type status =
  | Confluent_newman
  | Confluent_orthogonal
  | Locally_confluent_only
  | Not_locally_confluent
  | Undecided

type analysis = {
  a_spec : Spec.t;
  report : Consistency.report;
  search : Ordering.search_result;
  status : status;
}

let analyze ?fuel spec =
  let report = Consistency.check ?fuel spec in
  let search = Ordering.search spec in
  let diverging =
    List.exists
      (fun (_, v) -> match v with Consistency.Diverges _ -> true | _ -> false)
      report.Consistency.pairs
  in
  let timed_out =
    List.exists
      (fun (_, v) -> match v with Consistency.Timeout -> true | _ -> false)
      report.Consistency.pairs
  in
  let left_linear =
    List.for_all Axiom.is_left_linear
      (List.filter Axiom.is_executable (Spec.axioms spec))
  in
  let status =
    if diverging then Not_locally_confluent
    else if timed_out then Undecided
    else if Ordering.oriented search then Confluent_newman
    else if left_linear && report.Consistency.pairs = [] then
      Confluent_orthogonal
    else Locally_confluent_only
  in
  { a_spec = spec; report; search; status }

(* {1 Findings} *)

let adt020 spec =
  let r = completeness spec in
  List.map
    (fun h ->
      let op = Op.name h.hole_op in
      if h.decided then
        Diagnostic.v ~code:"ADT020" ~severity:Diagnostic.Error ~spec:r.c_spec
          ~op
          ~suggestion:
            (Fmt.str "add an axiom with left-hand side %s"
               (Term.to_string h.witness))
          (Fmt.str
             "the ground constructor context %s is matched by no executable \
              axiom: the specification is not sufficiently complete"
             (Term.to_string h.witness))
      else
        Diagnostic.v ~code:"ADT020" ~severity:Diagnostic.Warning ~spec:r.c_spec
          ~op
          ~suggestion:"replace the non-left-linear axioms by linear case splits"
          (Fmt.str
             "the pattern matrix leaves %s uncovered, but non-left-linear \
              axioms keep the verdict open (no ground counterexample up to \
              size 4)"
             (Term.to_string h.witness)))
    r.holes

let adt021 a =
  let spec_name = Spec.name a.a_spec in
  List.map
    (fun ax ->
      Diagnostic.v ~code:"ADT021" ~severity:Diagnostic.Error ~spec:spec_name
        ~op:(Op.name (Axiom.head ax))
        ~axiom:(Axiom.name ax)
        ~suggestion:
          "make the right-hand side smaller in the path order, or split the \
           equation into oriented rules"
        (Fmt.str
           "no recursive path ordering orients %s = %s (greedy precedence \
            search exhausted); termination of the rewrite system is unproven"
           (Term.to_string (Axiom.lhs ax))
           (Term.to_string (Axiom.rhs ax))))
    a.search.Ordering.unoriented

let op_of_peak t =
  match Term.view t with Term.App (op, _) -> Some (Op.name op) | _ -> None

let adt022 a =
  let spec_name = Spec.name a.a_spec in
  let pairs = a.report.Consistency.pairs in
  let divergent =
    List.filter_map
      (fun ((cp : Consistency.cp), v) ->
        match v with
        | Consistency.Diverges (l, r) -> Some (cp, l, r)
        | _ -> None)
      pairs
  in
  match a.status with
  | Confluent_newman | Confluent_orthogonal -> []
  | Not_locally_confluent ->
    let (cp : Consistency.cp), l, r = List.hd divergent in
    [
      Diagnostic.v ~code:"ADT022" ~severity:Diagnostic.Error ~spec:spec_name
        ?op:(op_of_peak cp.Consistency.peak)
        ~axiom:cp.Consistency.rule1
        ~suggestion:"add axioms joining the divergent normal forms"
        (Fmt.str
           "not locally confluent: the critical pair of [%s] and [%s] at \
            peak %s rewrites to %s and %s (%d divergent pair(s) in all), so \
            the system is not confluent"
           cp.Consistency.rule1 cp.Consistency.rule2
           (Term.to_string cp.Consistency.peak) (Term.to_string l)
           (Term.to_string r) (List.length divergent));
    ]
  | Undecided ->
    [
      Diagnostic.v ~code:"ADT022" ~severity:Diagnostic.Info ~spec:spec_name
        ~suggestion:"re-run with a larger fuel budget"
        (Fmt.str
           "joinability of %d critical pair(s) was not decided within the \
            fuel budget; confluence is not established"
           (List.length
              (List.filter
                 (fun (_, v) -> match v with Consistency.Timeout -> true | _ -> false)
                 pairs)));
    ]
  | Locally_confluent_only ->
    [
      Diagnostic.v ~code:"ADT022" ~severity:Diagnostic.Info ~spec:spec_name
        ~suggestion:
          "prove termination (see ADT021) to conclude confluence by Newman's \
           lemma"
        (Fmt.str
           "locally confluent only: all %d critical pair(s) join, but \
            termination is unproven, so Newman's lemma does not apply"
           (List.length pairs));
    ]

(* ADT002, the historical per-pair rule, fed from the same analysis so the
   two codes cannot disagree. Distinct value normal forms prove
   inconsistency (error); divergence between non-value terms is a warning;
   a joinability-search timeout is informational. *)
let adt002 a =
  let spec = a.a_spec in
  let is_value t = Spec.is_constructor_ground_term spec t || Term.is_error t in
  List.filter_map
    (fun ((cp : Consistency.cp), verdict) ->
      let mk severity message suggestion =
        Some
          (Diagnostic.v ~code:"ADT002" ~severity ~spec:(Spec.name spec)
             ?op:(op_of_peak cp.Consistency.peak)
             ~axiom:cp.Consistency.rule1 ~suggestion message)
      in
      match verdict with
      | Consistency.Joinable _ -> None
      | Consistency.Diverges (l, r) when is_value l && is_value r ->
        mk Diagnostic.Error
          (Fmt.str
             "axioms [%s] and [%s] rewrite %s to distinct values %s and %s: \
              the axiomatisation is inconsistent"
             cp.Consistency.rule1 cp.Consistency.rule2
             (Term.to_string cp.Consistency.peak) (Term.to_string l)
             (Term.to_string r))
          (Fmt.str "reconcile the overlapping axioms [%s] and [%s]"
             cp.Consistency.rule1 cp.Consistency.rule2)
      | Consistency.Diverges (l, r) ->
        mk Diagnostic.Warning
          (Fmt.str
             "axioms [%s] and [%s] rewrite %s to distinct normal forms %s \
              and %s; local confluence fails"
             cp.Consistency.rule1 cp.Consistency.rule2
             (Term.to_string cp.Consistency.peak) (Term.to_string l)
             (Term.to_string r))
          (Fmt.str "add an axiom joining %s and %s" (Term.to_string l)
             (Term.to_string r))
      | Consistency.Timeout ->
        mk Diagnostic.Info
          (Fmt.str
             "joinability of the critical pair of [%s] and [%s] at %s was \
              not decided within the fuel budget"
             cp.Consistency.rule1 cp.Consistency.rule2
             (Term.to_string cp.Consistency.peak))
          "re-run with a larger fuel budget")
    a.report.Consistency.pairs

(* {1 The check-command summary} *)

type summary = {
  s_spec : string;
  s_holes : hole list;
  s_unoriented : Axiom.t list;
  s_status : status;
  s_pairs : int;
}

let summarize ?fuel spec =
  let c = completeness spec in
  let a = analyze ?fuel spec in
  {
    s_spec = Spec.name spec;
    s_holes = c.holes;
    s_unoriented = a.search.Ordering.unoriented;
    s_status = a.status;
    s_pairs = List.length a.report.Consistency.pairs;
  }

let verified s =
  s.s_holes = []
  && s.s_unoriented = []
  && match s.s_status with
     | Confluent_newman | Confluent_orthogonal -> true
     | _ -> false

let pp_summary ppf s =
  let completeness ppf () =
    match s.s_holes with
    | [] -> Fmt.string ppf "sufficiently complete"
    | holes ->
      if List.for_all (fun h -> not h.decided) holes then
        Fmt.pf ppf "completeness undecided (%d open context(s))"
          (List.length holes)
      else
        Fmt.pf ppf "NOT sufficiently complete (%d uncovered context(s))"
          (List.length holes)
  in
  let termination ppf () =
    match s.s_unoriented with
    | [] -> Fmt.string ppf "terminating (recursive path ordering)"
    | axs ->
      Fmt.pf ppf "termination unproven (%d non-orientable axiom(s))"
        (List.length axs)
  in
  let confluence ppf () =
    match s.s_status with
    | Confluent_newman ->
      if s.s_pairs = 0 then
        Fmt.string ppf "confluent (no critical pairs; terminating)"
      else
        Fmt.pf ppf "confluent (Newman: %d critical pair(s) joinable, \
                    terminating)"
          s.s_pairs
    | Confluent_orthogonal ->
      Fmt.string ppf "confluent (orthogonal: left-linear, no critical pairs)"
    | Locally_confluent_only ->
      Fmt.string ppf "locally confluent only (termination unproven)"
    | Not_locally_confluent -> Fmt.string ppf "NOT locally confluent"
    | Undecided -> Fmt.string ppf "confluence undecided (joinability timeout)"
  in
  Fmt.pf ppf "verify %s: %a; %a; %a" s.s_spec completeness () termination ()
    confluence ()
