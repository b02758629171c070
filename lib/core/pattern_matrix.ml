type t = { spec : Spec.t; sorts : Sort.t list; rows : Term.t list list }

let create spec ~sorts ~rows =
  let width = List.length sorts in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Fmt.str "Pattern_matrix.create: row %d has %d patterns, expected %d"
             i (List.length row) width))
    rows;
  { spec; sorts; rows }

(* the head of a pattern, when it is a constructor application of the
   matrix's specification; anything else (wildcard, observer application,
   error, if-then-else) answers None *)
let ctor_head spec p =
  match Term.view p with
  | Term.App (op, args) when Spec.is_constructor op spec -> Some (op, args)
  | _ -> None

let is_wild p = match Term.view p with Term.Var _ -> true | _ -> false
let wild s = Term.var (String.lowercase_ascii (Sort.name s)) s

let rec take n = function
  | rest when n = 0 -> ([], rest)
  | [] -> invalid_arg "Pattern_matrix.take"
  | x :: rest ->
    let xs, rest = take (n - 1) rest in
    (x :: xs, rest)

(* S(c, P) over indexed rows: rows whose first column is compatible with
   constructor [c], the column replaced by c's argument columns *)
let specialize spec c rows =
  List.filter_map
    (fun (i, row) ->
      match row with
      | [] -> None
      | p :: rest -> (
        match ctor_head spec p with
        | Some (op, args) when Op.equal op c -> Some (i, args @ rest)
        | Some _ -> None
        | None ->
          if is_wild p then Some (i, List.map wild (Op.args c) @ rest)
          else None))
    rows

let expand ~avoid c =
  let taken = ref avoid in
  let fresh s =
    let base = String.lowercase_ascii (Sort.name s) in
    let name = Term.fresh_wrt ~avoid:!taken base s in
    taken := (name, s) :: !taken;
    Term.var name s
  in
  Term.app c (List.map fresh (Op.args c))

(* [go avoid rows q]: [rows] are the (index, remaining patterns) rows that
   match every instance of the query columns consumed so far, [avoid] the
   variables of the whole query vector. A variable column some row
   constrains is split into every constructor of its sort; a constructor
   column specializes the rows; any other column keeps the rows whose
   pattern there is a wildcard. *)
let rec go spec avoid rows q =
  match q with
  | [] -> [ ([], List.map fst rows) ]
  | q1 :: q' -> (
    match Term.view q1 with
    | Term.App (c, args) when Spec.is_constructor c spec ->
      List.map
        (fun (w, ix) ->
          let args, rest = take (List.length args) w in
          (Term.app c args :: rest, ix))
        (go spec avoid (specialize spec c rows) (args @ q'))
    | Term.Var (x, s)
      when List.exists
             (fun (_, row) -> ctor_head spec (List.hd row) <> None)
             rows ->
      let avoid' = List.filter (fun (y, _) -> not (String.equal x y)) avoid in
      List.concat_map
        (fun c ->
          let split = expand ~avoid c in
          go spec (Term.var_set split avoid') rows (split :: q'))
        (Spec.constructors_of_sort s spec)
    | _ ->
      let kept =
        List.filter_map
          (fun (i, row) ->
            match row with
            | p :: rest when is_wild p -> Some (i, rest)
            | _ -> None)
          rows
      in
      List.map (fun (w, ix) -> (q1 :: w, ix)) (go spec avoid kept q'))

let cases m q =
  if List.length q <> List.length m.sorts then
    invalid_arg "Pattern_matrix.cases: width mismatch";
  let avoid = List.fold_left (fun acc t -> Term.var_set t acc) [] q in
  go m.spec avoid (List.mapi (fun i row -> (i, row)) m.rows) q

let instantiate_wildcards spec t =
  (* prefer a constant constructor so witnesses stay small; bound the
     recursion so a sort whose constructors all recurse (which ADT013
     reports separately) falls back to a variable instead of looping *)
  let rec fill depth s =
    if depth = 0 then None
    else
      match Spec.constructors_of_sort s spec with
      | [] -> None
      | ctors ->
        let pick =
          match List.find_opt Op.is_constant ctors with
          | Some c -> c
          | None -> List.hd ctors
        in
        let args =
          List.map
            (fun s' ->
              match fill (depth - 1) s' with
              | Some t -> t
              | None -> wild s')
            (Op.args pick)
        in
        Some (Term.app pick args)
  in
  Term.map_vars
    (fun x s -> match fill 6 s with Some t -> t | None -> Term.var x s)
    t
