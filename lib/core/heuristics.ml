type kind = Boundary | General

type prompt = {
  op : Op.t;
  missing_lhs : Term.t;
  kind : kind;
  question : string;
  suggested_rhs : Term.t option;
}

(* A pattern is a boundary case when every constructor application in it is
   a constant (e.g. FRONT(NEW)); such cases are the ones the paper notes are
   "particularly likely to be overlooked". *)
let classify spec pattern =
  let has_ctor = ref false in
  let constant_ctors_only =
    Term.fold
      (fun acc t ->
        acc
        &&
        match Term.view t with
        | Term.App (op, args) when Spec.is_constructor op spec ->
          has_ctor := true;
          args = []
        | _ -> true)
      true pattern
  in
  (* a pattern with no constructor at all (a fully general case) is not a
     boundary condition — only constant-constructor cases like FRONT(NEW) *)
  if !has_ctor && constant_ctors_only then Boundary else General

let skeletons spec op =
  List.map
    (fun c -> c.Completeness.pattern)
    (Completeness.check_op spec op).cases

let forced_rhs spec pattern =
  (* When the result sort has exactly one constant constructor and no other
     constructor, there is only one non-error value to suggest. *)
  let sort = Term.sort_of pattern in
  match Spec.constructors_of_sort sort spec with
  | [ op ] when Op.is_constant op -> Some (Term.const op)
  | _ -> None

let question op pattern kind =
  let flavour =
    match kind with
    | Boundary -> " (boundary condition: easy to overlook!)"
    | General -> ""
  in
  Fmt.str "Please supply an axiom defining %s = ?%s" (Term.to_string pattern)
    flavour
  ^ Fmt.str " [result sort %s]" (Sort.name (Op.result op))

let prompts spec =
  let report = Completeness.check spec in
  let all =
    List.concat_map
      (fun (r : Completeness.op_report) ->
        if r.unconstrained then []
        else
          List.filter_map
            (fun (c : Completeness.case) ->
              if c.covered_by <> [] then None
              else
                let kind = classify spec c.pattern in
                Some
                  {
                    op = r.op;
                    missing_lhs = c.pattern;
                    kind;
                    question = question r.op c.pattern kind;
                    suggested_rhs = forced_rhs spec c.pattern;
                  })
            r.cases)
      report.op_reports
  in
  let boundary, general =
    List.partition (fun p -> p.kind = Boundary) all
  in
  boundary @ general

let stub_axioms ?(prefix = "stub") spec =
  List.mapi
    (fun i p ->
      let rhs =
        match p.suggested_rhs with
        | Some t -> t
        | None -> Term.err (Term.sort_of p.missing_lhs)
      in
      Axiom.v ~name:(Fmt.str "%s_%d" prefix (i + 1)) ~lhs:p.missing_lhs ~rhs ())
    (prompts spec)

let complete_with_stubs spec = Spec.with_axioms (stub_axioms spec) spec

let pp_prompt ppf p =
  let kind = match p.kind with Boundary -> "boundary" | General -> "general" in
  match p.suggested_rhs with
  | None -> Fmt.pf ppf "@[<h>[%s] %s@]" kind p.question
  | Some rhs ->
    Fmt.pf ppf "@[<h>[%s] %s (suggestion: %a)@]" kind p.question Term.pp rhs
