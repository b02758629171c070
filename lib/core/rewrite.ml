type rule = { rule_name : string; lhs : Term.t; rhs : Term.t }

let rule ?(name = "") ~lhs ~rhs () =
  (match Term.view lhs with
  | Term.App _ -> ()
  | Term.Var _ | Term.Err _ | Term.Ite _ ->
    (* only application-headed left-hand sides can ever match: the redex
       finder dispatches on the head operation, and error / if-then-else
       reduction is builtin *)
    invalid_arg
      "Rewrite.rule: left-hand side must be an operation application");
  if not (Sort.equal (Term.sort_of lhs) (Term.sort_of rhs)) then
    invalid_arg "Rewrite.rule: sides have different sorts";
  let lvars = Term.vars lhs in
  List.iter
    (fun (x, s) ->
      if not (List.mem (x, s) lvars) then
        invalid_arg
          (Fmt.str "Rewrite.rule: right-hand side variable %s not bound on the left" x))
    (Term.vars rhs);
  { rule_name = name; lhs; rhs }

let rule_of_axiom ax =
  { rule_name = Axiom.name ax; lhs = Axiom.lhs ax; rhs = Axiom.rhs ax }

let axiom_of_rule r = Axiom.v ~name:r.rule_name ~lhs:r.lhs ~rhs:r.rhs ()

let pp_rule ppf r =
  if String.equal r.rule_name "" then
    Fmt.pf ppf "@[<hov 2>%a ->@ %a@]" Term.pp r.lhs Term.pp r.rhs
  else
    Fmt.pf ppf "@[<hov 2>[%s] %a ->@ %a@]" r.rule_name Term.pp r.lhs Term.pp
      r.rhs

module String_map = Map.Make (String)

(* {2 Engine selection}

   Two engines share one [system] value and agree on every observable
   (normal forms, step counts, error strictness, fuel exhaustion —
   [test/test_diff.ml] is the proof):

   - [Reference]: the naive engine — linear rule scan, deep structural
     equality. The slowest; kept as the differential oracle.
   - [Automaton]: the compiled matching automaton ([Match_tree]) —
     every subterm inspected once, no substitution maps, rule firing
     through precomputed right-hand-side templates. The default.

   The process-wide default seeds each compiled system's dispatch
   engine; it is initialized from the ADTC_ENGINE environment variable
   ("reference" | "auto") and settable by the CLI's --engine
   flag. A system remembers its engine, so interpreters forked from it
   (and every domain of the server pool) dispatch identically. *)

type engine = Reference | Automaton

let engine_name = function Reference -> "reference" | Automaton -> "auto"

let engine_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "reference" -> Some Reference
  | "auto" | "automaton" -> Some Automaton
  | _ -> None

let default_engine_ref =
  ref
    (match Sys.getenv_opt "ADTC_ENGINE" with
    | None | Some "" -> Automaton
    | Some s -> (
      match engine_of_string s with
      | Some e -> e
      | None ->
        Fmt.epr
          "adtc: ignoring ADTC_ENGINE=%S (expected reference|auto)@." s;
        Automaton))

let default_engine () = !default_engine_ref
let set_default_engine e = default_engine_ref := e

type system = {
  all : rule list; (* priority order: earlier rules tried first *)
  trees : (string, rule Match_tree.t) Hashtbl.t;
      (* the matching automaton, one per head symbol; built once in
         [of_rules] and never mutated after, so sharing it across
         [with_engine] copies and across domains is safe *)
  engine : engine; (* which engine this system's entry points dispatch to *)
}

let head_name r =
  match Term.view r.lhs with
  | Term.App (op, _) -> Op.name op
  | Term.Ite _ -> "<if>"
  | Term.Err _ -> "<error>"
  | Term.Var _ -> assert false

let group_by_head rules =
  List.fold_left
    (fun m r ->
      let key = head_name r in
      let existing = Option.value ~default:[] (String_map.find_opt key m) in
      String_map.add key (existing @ [ r ]) m)
    String_map.empty rules

(* one automaton per head-symbol group; the automaton's own root switch
   re-verifies the exact operation ([Op.equal]), so two operations that
   share a name but not a rank never cross-match *)
let compile_trees rules =
  let groups = group_by_head rules in
  let tbl = Hashtbl.create (max 16 (String_map.cardinal groups)) in
  String_map.iter
    (fun head head_rules ->
      Hashtbl.replace tbl head
        (Match_tree.compile
           (List.map (fun r -> (r, r.lhs, r.rhs)) head_rules)))
    groups;
  tbl

let of_rules ?engine all =
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  { all; trees = compile_trees all; engine }

let of_spec ?engine spec =
  (* an axiom with free right-hand-side variables (parsed leniently so the
     analyzer can flag it as ADT011) is not a rule: firing it would invent
     unbound variables and break groundness, so it is skipped here *)
  of_rules ?engine
    (List.map rule_of_axiom
       (List.filter Axiom.is_executable (Spec.axioms spec)))

(* added rules inherit the host system's engine, not the global default:
   completion grows systems incrementally and must stay self-consistent *)
let add_rules extra sys = of_rules ~engine:sys.engine (extra @ sys.all)
let add_axioms axs sys = add_rules (List.map rule_of_axiom axs) sys
let rules sys = sys.all
let size sys = List.length sys.all
let engine_of sys = sys.engine
let with_engine engine sys = { sys with engine }

type strategy = Innermost | Outermost

exception Out_of_fuel of Term.t

let default_fuel = 200_000

(* {2 The matchers}

   Every engine reduces to one shape: a redex finder
   [Term.t -> (rule * Term.t) option] answering the first matching rule
   (priority order) and the instantiated right-hand side. The outermost
   loop and {!step} below are engine-blind — they only consume finders. *)

(* the naive structural matcher, shared by the [Reference] engine and the
   reference finder: binds and compares with deep structural equality and
   never consults ids, precomputed hashes, or the intern table *)
module Linear = struct
  let rec match_term pattern subject bindings =
    match (Term.view pattern, Term.view subject) with
    | Term.Var (x, sort), _ ->
      if not (Sort.equal sort (Term.sort_of subject)) then None
      else (
        match String_map.find_opt x bindings with
        | Some prev ->
          if Term.structural_equal prev subject then Some bindings else None
        | None -> Some (String_map.add x subject bindings))
    | Term.Err sp, Term.Err st ->
      if Sort.equal sp st then Some bindings else None
    | Term.App (f, ps), Term.App (g, ts) when Op.equal f g ->
      match_list ps ts bindings
    | Term.Ite (c1, t1, e1), Term.Ite (c2, t2, e2) ->
      match_list [ c1; t1; e1 ] [ c2; t2; e2 ] bindings
    | _ -> None

  and match_list ps ts bindings =
    match (ps, ts) with
    | [], [] -> Some bindings
    | p :: ps, t :: ts -> (
      match match_term p t bindings with
      | Some bindings -> match_list ps ts bindings
      | None -> None)
    | _ -> None

  let apply bindings rhs =
    Term.map_vars
      (fun x sort ->
        match String_map.find_opt x bindings with
        | Some t -> t
        | None -> Term.var x sort)
      rhs

  (* linear scan: every rule, in priority order, no dispatch at all *)
  let find_redex sys t =
    match Term.view t with
    | Term.App _ ->
      let rec first = function
        | [] -> None
        | r :: rest -> (
          match match_term r.lhs t String_map.empty with
          | Some s -> Some (r, s)
          | None -> first rest)
      in
      first sys.all
    | _ -> None
end

let find_automaton sys t =
  match Term.view t with
  | Term.App (op, _) -> (
    match Hashtbl.find_opt sys.trees (Op.name op) with
    | None -> None
    | Some tree -> Match_tree.run tree t)
  | _ -> None

let find_reference sys t =
  match Linear.find_redex sys t with
  | Some (r, s) -> Some (r, Linear.apply s r.rhs)
  | None -> None

let finder sys =
  match sys.engine with
  | Reference -> find_reference sys
  | Automaton -> find_automaton sys

(* One leftmost-outermost step, or None. *)
let rec outer_step ~find t =
  match Term.view t with
  | Term.Var _ | Term.Err _ -> None
  | Term.Ite (c, th, el) -> (
    if Term.equal c Term.tt then Some (th, "<if>")
    else if Term.equal c Term.ff then Some (el, "<if>")
    else
      match Term.view c with
      | Term.Err _ -> Some (Term.err (Term.sort_of th), "<error>")
      | _ -> (
        (* branches of a stuck conditional are frozen, as in the
           innermost loops *)
        match outer_step ~find c with
        | Some (c', n) -> Some (Term.ite_unchecked c' th el, n)
        | None -> None))
  | Term.App (op, args) -> (
    if List.exists Term.is_error args then
      Some (Term.err (Op.result op), "<error>")
    else
      match find t with
      | Some (r, reduct) -> Some (reduct, r.rule_name)
      | None ->
        let rec step_child i = function
          | [] -> None
          | a :: rest -> (
            match outer_step ~find a with
            | Some (a', n) ->
              let args' =
                List.mapi (fun j x -> if j = i then a' else x) args
              in
              Some (Term.app_unchecked op args', n)
            | None -> step_child (i + 1) rest)
        in
        step_child 0 args)

let outermost ~find ~on_apply term =
  let rec go t =
    match outer_step ~find t with
    | None -> t
    | Some (t', name) ->
      if not (String.equal name "<if>" || String.equal name "<error>") then
        on_apply { rule_name = name; lhs = t; rhs = t' };
      go t'
  in
  go term

exception Fuel_exhausted

let no_poll () = ()

(* [on_rule] is the observability sibling of [poll]: called with the
   rule's name at every application, it feeds per-rule firing attribution
   (the tracer of lib/obs) through the same site that charges fuel and
   checks the deadline. [None] by default, so uninstrumented callers pay
   only one option test per application. *)
let fire on_rule r =
  match on_rule with None -> () | Some f -> f r.rule_name

(* {2 The fused automaton loop}

   Innermost normalization interleaved with template instantiation. A
   plain innermost loop (the [Reference] engine's, below) fires a rule by
   instantiating its full right-hand side and re-normalizing the result —
   which re-walks every fetched subterm even though, under innermost
   rewriting, a subterm bound at a non-frozen pattern position is already
   in normal form (the arguments were normalized before matching, and
   innermost normal forms are norm-fixpoints). Here the leaf's {!Match_tree.builder} template is
   normalized directly instead: [Fetch]ed registers are returned without
   a walk, [Fetch_frozen] registers (bound through the branch of an
   if-then-else pattern, where stuck conditionals keep frozen redexes)
   are re-normalized, and constructed nodes are normalized
   bottom-up as the template unfolds. Rule firing order and count are
   exactly the plain loop's: normalizing the instantiated reduct
   leftmost-innermost visits the same redexes in the same order, and
   skipped fetches contribute zero firings either way. The differential
   harness ([test/test_diff.ml]) pins this equivalence — normal form
   {e and} step count — against the reference engine on every corpus
   specification. *)

let template_of sys t =
  match Term.view t with
  | Term.App (op, _) -> (
    match Hashtbl.find_opt sys.trees (Op.name op) with
    | None -> None
    | Some tree -> Match_tree.run_template tree t)
  | _ -> None

let automaton_innermost ~on_apply sys term =
  let rec norm t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> t
    | Term.Ite (c, th, el) -> (
      let c' = norm c in
      if Term.equal c' Term.tt then norm th
      else if Term.equal c' Term.ff then norm el
      else
        match Term.view c' with
        | Term.Err _ -> Term.err (Term.sort_of th)
        | _ -> Term.ite_unchecked c' th el)
    | Term.App (op, args) ->
      let args' = List.map norm args in
      if List.exists Term.is_error args' then Term.err (Op.result op)
      else if List.for_all2 ( == ) args args' then reduce t
      else reduce_app op args'
  (* [t'] has normalized arguments: match at the root and, on success,
     normalize the template rather than the instantiated reduct *)
  and reduce t' =
    match template_of sys t' with
    | None -> t'
    | Some (r, regs, builder) ->
      on_apply r;
      build regs builder
  (* the same, for an application not interned yet: a fired redex node is
     discarded immediately, so it is only interned when no rule matches
     and the node is the (normal-form) result *)
  and reduce_app op args' =
    match Hashtbl.find_opt sys.trees (Op.name op) with
    | None -> Term.app_unchecked op args'
    | Some tree -> (
      match Match_tree.run_template_app tree op args' with
      | None -> Term.app_unchecked op args'
      | Some (r, regs, builder) ->
        on_apply r;
        build regs builder)
  (* [build regs b = norm (Match_tree.instantiate regs b)], with the
     walk over already-normal fetched subterms elided *)
  and build regs = function
    | Match_tree.Ready t -> norm t (* ground, but may hold redexes *)
    | Match_tree.Fetch r -> regs.(r)
    | Match_tree.Fetch_frozen r -> norm regs.(r)
    | Match_tree.Build_app (op, bs) ->
      let args' = List.map (build regs) bs in
      if List.exists Term.is_error args' then Term.err (Op.result op)
      else reduce_app op args'
    | Match_tree.Build_ite (c, a, b) -> (
      let c' = build regs c in
      if Term.equal c' Term.tt then build regs a
      else if Term.equal c' Term.ff then build regs b
      else
        match Term.view c' with
        | Term.Err _ -> Term.err (Term.sort_of (Match_tree.instantiate regs a))
        | _ ->
          (* stuck: freeze the branches instantiated but unnormalized,
             exactly as the plain loop leaves them *)
          Term.ite_unchecked c'
            (Match_tree.instantiate regs a)
            (Match_tree.instantiate regs b))
  in
  norm term

let run_automaton ?(strategy = Innermost) ?(fuel = default_fuel)
    ?(poll = no_poll) ?on_rule ~on_apply sys term =
  let remaining = ref fuel in
  let counted r =
    (* a dedicated exception: a caller-supplied [on_apply] may raise its
       own exceptions (Exit included) to abort, and those must not be
       misreported as fuel exhaustion *)
    if !remaining <= 0 then raise Fuel_exhausted;
    decr remaining;
    poll ();
    fire on_rule r;
    on_apply r
  in
  try
    match strategy with
    | Innermost -> automaton_innermost ~on_apply:counted sys term
    | Outermost ->
      outermost ~find:(find_automaton sys) ~on_apply:counted term
  with Fuel_exhausted -> raise (Out_of_fuel term)

module Term_lru = Lru.Make (struct
  type t = Term.t

  (* hash-consing makes structural equality physical and gives every term
     a unique id: the memo keys on identity, no structural hashing at all *)
  let equal = Term.equal
  let hash = Term.id
end)

module Memo = struct
  type t = {
    cache : Term.t Term_lru.t;
    mutable hits : int;
    mutable misses : int;
  }

  let default_capacity = Term_lru.default_capacity

  let create ?capacity () =
    { cache = Term_lru.create ?capacity (); hits = 0; misses = 0 }

  let clear m =
    Term_lru.clear m.cache;
    m.hits <- 0;
    m.misses <- 0

  let size m = Term_lru.length m.cache
  let capacity m = Term_lru.capacity m.cache
  let hits m = m.hits
  let misses m = m.misses
  let evictions m = Term_lru.evictions m.cache
end

(* {1 The reference engine}

   A deliberately naive copy of the rewriting algorithm from before rule
   compilation and hash-consing landed: rules are scanned linearly in
   priority order, matching binds and compares with deep structural equality, and
   nothing consults ids, precomputed hashes, or the intern table. It is
   the oracle the differential harness ([test/test_diff.ml]) normalizes
   every random term against — byte-for-byte the same strategy, error
   strictness, if-then-else laziness, and fuel accounting, only slower. *)

module Reference = struct
  let find_redex = Linear.find_redex
  let apply = Linear.apply

  let innermost ~on_apply sys term =
    let rec norm t =
      match Term.view t with
      | Term.Var _ | Term.Err _ -> t
      | Term.Ite (c, th, el) -> (
        let c' = norm c in
        if Term.structural_equal c' Term.tt then norm th
        else if Term.structural_equal c' Term.ff then norm el
        else
          match Term.view c' with
          | Term.Err _ -> Term.err (Term.sort_of th)
          | _ -> Term.ite_unchecked c' th el)
      | Term.App (op, args) -> (
        let args' = List.map norm args in
        if List.exists Term.is_error args' then Term.err (Op.result op)
        else
          let t' = Term.app_unchecked op args' in
          match find_redex sys t' with
          | None -> t'
          | Some (r, s) ->
            on_apply r;
            norm (apply s r.rhs))
    in
    norm term

  let rec outer_step sys t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> None
    | Term.Ite (c, th, el) -> (
      if Term.structural_equal c Term.tt then Some (th, "<if>")
      else if Term.structural_equal c Term.ff then Some (el, "<if>")
      else
        match Term.view c with
        | Term.Err _ -> Some (Term.err (Term.sort_of th), "<error>")
        | _ -> (
          match outer_step sys c with
          | Some (c', n) -> Some (Term.ite_unchecked c' th el, n)
          | None -> None))
    | Term.App (op, args) -> (
      if List.exists Term.is_error args then
        Some (Term.err (Op.result op), "<error>")
      else
        match find_redex sys t with
        | Some (r, s) -> Some (apply s r.rhs, r.rule_name)
        | None ->
          let rec step_child i = function
            | [] -> None
            | a :: rest -> (
              match outer_step sys a with
              | Some (a', n) ->
                let args' =
                  List.mapi (fun j x -> if j = i then a' else x) args
                in
                Some (Term.app_unchecked op args', n)
              | None -> step_child (i + 1) rest)
          in
          step_child 0 args)

  let outermost ~on_apply sys term =
    let rec go t =
      match outer_step sys t with
      | None -> t
      | Some (t', name) ->
        if not (String.equal name "<if>" || String.equal name "<error>") then
          on_apply { rule_name = name; lhs = t; rhs = t' };
        go t'
    in
    go term

  let run ?(strategy = Innermost) ?(fuel = default_fuel) ?(poll = no_poll)
      ?on_rule ~on_apply sys term =
    let remaining = ref fuel in
    let counted r =
      if !remaining <= 0 then raise Fuel_exhausted;
      decr remaining;
      poll ();
      fire on_rule r;
      on_apply r
    in
    try
      match strategy with
      | Innermost -> innermost ~on_apply:counted sys term
      | Outermost -> outermost ~on_apply:counted sys term
    with Fuel_exhausted -> raise (Out_of_fuel term)

  let normalize ?strategy ?fuel ?poll ?on_rule sys term =
    run ?strategy ?fuel ?poll ?on_rule ~on_apply:(fun _ -> ()) sys term

  let normalize_opt ?strategy ?fuel ?poll ?on_rule sys term =
    match normalize ?strategy ?fuel ?poll ?on_rule sys term with
    | t -> Some t
    | exception Out_of_fuel _ -> None

  let normalize_count ?strategy ?fuel ?poll ?on_rule sys term =
    let n = ref 0 in
    let t =
      run ?strategy ?fuel ?poll ?on_rule ~on_apply:(fun _ -> incr n) sys term
    in
    (t, !n)

  (* the oracle's memo loop: every application node is probed, and a miss
     reduces through the linear scan *)
  let memo_count ?(fuel = default_fuel) ?(poll = no_poll) ?on_rule ~memo sys
      term =
    let remaining = ref fuel in
    let rec norm t =
      match Term.view t with
      | Term.Var _ | Term.Err _ -> t
      | Term.Ite (c, th, el) -> (
        let c' = norm c in
        if Term.equal c' Term.tt then norm th
        else if Term.equal c' Term.ff then norm el
        else
          match Term.view c' with
          | Term.Err _ -> Term.err (Term.sort_of th)
          | _ -> Term.ite_unchecked c' th el)
      | Term.App (op, args) -> (
        match Term_lru.find memo.Memo.cache t with
        | Some nf ->
          memo.Memo.hits <- memo.Memo.hits + 1;
          nf
        | None ->
          memo.Memo.misses <- memo.Memo.misses + 1;
          let args' = List.map norm args in
          let nf =
            if List.exists Term.is_error args' then Term.err (Op.result op)
            else
              let t' =
                if List.for_all2 ( == ) args args' then t
                else Term.app_unchecked op args'
              in
              match find_reference sys t' with
              | None -> t'
              | Some (r, reduct) ->
                if !remaining <= 0 then raise (Out_of_fuel t);
                decr remaining;
                poll ();
                fire on_rule r;
                norm reduct
          in
          Term_lru.add memo.Memo.cache t nf;
          nf)
    in
    let nf = norm term in
    (nf, fuel - !remaining)
end

(* {1 Engine-dispatched entry points}

   [normalize] and friends follow the system's engine. The [Reference]
   engine keeps its separate loops (structural equality everywhere — the
   whole point of the oracle). *)

let run ?strategy ?fuel ?poll ?on_rule ~on_apply sys term =
  match sys.engine with
  | Reference ->
    Reference.run ?strategy ?fuel ?poll ?on_rule ~on_apply sys term
  | Automaton ->
    run_automaton ?strategy ?fuel ?poll ?on_rule ~on_apply sys term

let normalize ?strategy ?fuel ?poll ?on_rule sys term =
  run ?strategy ?fuel ?poll ?on_rule ~on_apply:(fun _ -> ()) sys term

let normalize_opt ?strategy ?fuel ?poll ?on_rule sys term =
  match normalize ?strategy ?fuel ?poll ?on_rule sys term with
  | t -> Some t
  | exception Out_of_fuel _ -> None

let normalize_count ?strategy ?fuel ?poll ?on_rule sys term =
  let n = ref 0 in
  let t =
    run ?strategy ?fuel ?poll ?on_rule ~on_apply:(fun _ -> incr n) sys term
  in
  (t, !n)

let joinable ?strategy ?fuel sys a b =
  match
    (normalize_opt ?strategy ?fuel sys a, normalize_opt ?strategy ?fuel sys b)
  with
  | Some na, Some nb -> Term.equal na nb
  | _ -> false

(* pinned-engine entry points: the same system value, dispatched to one
   engine regardless of [engine_of] — what the differential harness and
   the E18 bench quantify over *)

module Automaton = struct
  let normalize ?strategy ?fuel ?poll ?on_rule sys term =
    run_automaton ?strategy ?fuel ?poll ?on_rule
      ~on_apply:(fun _ -> ())
      sys term

  let normalize_opt ?strategy ?fuel ?poll ?on_rule sys term =
    match normalize ?strategy ?fuel ?poll ?on_rule sys term with
    | t -> Some t
    | exception Out_of_fuel _ -> None

  let normalize_count ?strategy ?fuel ?poll ?on_rule sys term =
    let n = ref 0 in
    let t =
      run_automaton ?strategy ?fuel ?poll ?on_rule
        ~on_apply:(fun _ -> incr n)
        sys term
    in
    (t, !n)
end

(* the fused-automaton memo loop: the memo is consulted at application
   nodes of the subject and at nodes the right-hand-side template
   {e constructs}; [Fetch]ed registers are returned without even a probe
   (they are already normal — a probe could only hit). Terms below
   [memo_cutoff] bypass the memo entirely: a cache transaction (probe
   plus insert) costs about as much as re-reducing a tiny term, so
   caching them burns time and capacity to save neither. The cached
   mapping is term-to-normal-form either way, so the memo stays exchange-
   able across engines; only the hit/miss counters differ from the
   generic loop's, because the probe points do. *)
let memo_cutoff = 8

let automaton_memo_count ?(fuel = default_fuel) ?(poll = no_poll) ?on_rule
    ~memo sys term =
  let remaining = ref fuel in
  let rec norm t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> t
    | Term.Ite (c, th, el) -> (
      let c' = norm c in
      if Term.equal c' Term.tt then norm th
      else if Term.equal c' Term.ff then norm el
      else
        match Term.view c' with
        | Term.Err _ -> Term.err (Term.sort_of th)
        | _ -> Term.ite_unchecked c' th el)
    | Term.App (op, args) when Term.size t >= memo_cutoff -> (
      match Term_lru.find memo.Memo.cache t with
      | Some nf ->
        memo.Memo.hits <- memo.Memo.hits + 1;
        nf
      | None ->
        memo.Memo.misses <- memo.Memo.misses + 1;
        let nf = norm_app t op args in
        Term_lru.add memo.Memo.cache t nf;
        nf)
    | Term.App (op, args) -> norm_app t op args
  and norm_app t op args =
    let args' = List.map norm args in
    if List.exists Term.is_error args' then Term.err (Op.result op)
    else if List.for_all2 ( == ) args args' then fire_at t
    else fire_app op args'
  (* [t'] has normalized arguments: match and normalize the template *)
  and fire_at t' =
    match template_of sys t' with
    | None -> t'
    | Some (r, regs, builder) ->
      if !remaining <= 0 then raise (Out_of_fuel t');
      decr remaining;
      poll ();
      fire on_rule r;
      build regs builder
  (* the same for an application not interned yet: when a rule fires the
     node is discarded immediately, so it is interned only when no rule
     matches and the node is the (normal-form) result *)
  and fire_app op args' =
    match Hashtbl.find_opt sys.trees (Op.name op) with
    | None -> Term.app_unchecked op args'
    | Some tree -> fire_tree tree op args'
  and fire_tree tree op args' =
    match Match_tree.run_template_app tree op args' with
    | None -> Term.app_unchecked op args'
    | Some (r, regs, builder) ->
      if !remaining <= 0 then
        raise (Out_of_fuel (Term.app_unchecked op args'));
      decr remaining;
      poll ();
      fire on_rule r;
      build regs builder
  (* memo-probe the nodes the template constructs before reducing them;
     tiny nodes reduce directly, bypassing the memo *)
  and reduce_memo tree t' =
    match Term_lru.find memo.Memo.cache t' with
    | Some nf ->
      memo.Memo.hits <- memo.Memo.hits + 1;
      nf
    | None ->
      memo.Memo.misses <- memo.Memo.misses + 1;
      let nf =
        match Match_tree.run_template tree t' with
        | None -> t'
        | Some (r, regs, builder) ->
          if !remaining <= 0 then raise (Out_of_fuel t');
          decr remaining;
          poll ();
          fire on_rule r;
          build regs builder
      in
      Term_lru.add memo.Memo.cache t' nf;
      nf
  and build regs = function
    | Match_tree.Ready t -> norm t
    | Match_tree.Fetch r -> regs.(r)
    | Match_tree.Fetch_frozen r -> norm regs.(r)
    | Match_tree.Build_app (op, bs) -> (
      let args' = List.map (build regs) bs in
      if List.exists Term.is_error args' then Term.err (Op.result op)
      else
        (* a rule-less head with normal arguments is already a normal
           form, and a tiny node costs as much to cache as to re-reduce:
           neither touches the memo, and neither ever interns a node
           that a fired rule would discard *)
        match Hashtbl.find_opt sys.trees (Op.name op) with
        | None -> Term.app_unchecked op args'
        | Some tree ->
          let size = List.fold_left (fun n a -> n + Term.size a) 1 args' in
          if size < memo_cutoff then fire_tree tree op args'
          else reduce_memo tree (Term.app_unchecked op args'))
    | Match_tree.Build_ite (c, a, b) -> (
      let c' = build regs c in
      if Term.equal c' Term.tt then build regs a
      else if Term.equal c' Term.ff then build regs b
      else
        match Term.view c' with
        | Term.Err _ -> Term.err (Term.sort_of (Match_tree.instantiate regs a))
        | _ ->
          Term.ite_unchecked c'
            (Match_tree.instantiate regs a)
            (Match_tree.instantiate regs b))
  in
  (* the root is memoized whatever its size: the interpreter and server
     session caches key whole queries through this entry point, and a
     repeated query must hit even when it is tiny *)
  let nf =
    match Term.view term with
    | Term.App (op, args) when Term.size term < memo_cutoff -> (
      match Term_lru.find memo.Memo.cache term with
      | Some nf ->
        memo.Memo.hits <- memo.Memo.hits + 1;
        nf
      | None ->
        memo.Memo.misses <- memo.Memo.misses + 1;
        let nf = norm_app term op args in
        Term_lru.add memo.Memo.cache term nf;
        nf)
    | _ -> norm term
  in
  (nf, fuel - !remaining)

let normalize_memo_count ?fuel ?poll ?on_rule ~memo sys term =
  match sys.engine with
  | Automaton -> automaton_memo_count ?fuel ?poll ?on_rule ~memo sys term
  | Reference -> Reference.memo_count ?fuel ?poll ?on_rule ~memo sys term

let normalize_memo ?fuel ?poll ?on_rule ~memo sys term =
  fst (normalize_memo_count ?fuel ?poll ?on_rule ~memo sys term)

type event = {
  position : Term.position;
  rule_used : string;
  before : Term.t;
  after : Term.t;
}

let pp_event ppf e =
  Fmt.pf ppf "@[<hov 2>%a@ --[%s]-->@ %a@]" Term.pp e.before e.rule_used
    Term.pp e.after

(* One leftmost-innermost step with position reporting: locate the leftmost
   innermost redex (builtin steps included). *)
let step sys term =
  let find = finder sys in
  let rec locate pos t =
    match Term.view t with
    | Term.Var _ | Term.Err _ -> None
    | Term.Ite (c, th, el) -> (
      match locate (pos @ [ 0 ]) c with
      | Some _ as hit -> hit
      | None ->
        if Term.equal c Term.tt then Some (pos, th, "<if>")
        else if Term.equal c Term.ff then Some (pos, el, "<if>")
        else if Term.is_error c then
          Some (pos, Term.err (Term.sort_of th), "<error>")
        else None (* stuck conditional: branches frozen *))
    | Term.App (op, args) -> (
      let rec in_children i = function
        | [] -> None
        | a :: rest -> (
          match locate (pos @ [ i ]) a with
          | Some _ as hit -> hit
          | None -> in_children (i + 1) rest)
      in
      match in_children 0 args with
      | Some _ as hit -> hit
      | None ->
        if List.exists Term.is_error args then
          Some (pos, Term.err (Op.result op), "<error>")
        else (
          match find t with
          | Some (r, reduct) -> Some (pos, reduct, r.rule_name)
          | None -> None))
  in
  match locate [] term with
  | None -> None
  | Some (position, replacement, rule_used) -> (
    match Term.replace_at term position replacement with
    | Some after -> Some { position; rule_used; before = term; after }
    | None -> None)

let is_normal_form sys term = Option.is_none (step sys term)

let trace ?(fuel = default_fuel) ?(max_events = 1_000) sys term =
  let events = ref [] and n_events = ref 0 and remaining = ref fuel in
  let rec go t =
    match step sys t with
    | None -> t
    | Some e ->
      if !remaining <= 0 then raise (Out_of_fuel t);
      decr remaining;
      if !n_events < max_events then begin
        events := e :: !events;
        incr n_events
      end;
      go e.after
  in
  let result = go term in
  (result, List.rev !events)

type stats = { applications : (string * int) list; total : int }

let normalize_stats ?strategy ?fuel sys term =
  let counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let total = ref 0 in
  let on_apply r =
    incr total;
    let key = if String.equal r.rule_name "" then "<unnamed>" else r.rule_name in
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let t = run ?strategy ?fuel ~on_apply sys term in
  let applications =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (t, { applications; total = !total })

(* {1 The compiled-system cache}

   Compiling a spec's rule automaton is pure — the system depends only on the
   executable axioms in order — so systems are interned by the caller's
   content key (Spec_digest.spec in practice). Before this cache, every
   Session spec load and every Interp.create recompiled the rules from
   scratch even when the spec was byte-identical; now a reload
   of an unchanged spec is one table probe. Sharing a compiled system
   across interpreters (and domains) is already the forked-interpreter
   contract: the system is immutable after construction. A full cache
   simply resets — compilation is cheap enough that eviction bookkeeping
   would cost more than the occasional cold refill.

   Entries are keyed by (content key, engine): a cached system is pinned
   to the engine it was compiled for, so switching the default engine
   (ADTC_ENGINE, --engine) reads as a miss and recompiles, never as a
   stale hit that would silently keep dispatching to the old engine. *)

let compile_cache : (string * string, system) Hashtbl.t = Hashtbl.create 32
let compile_cache_lock = Mutex.create ()
let compile_cache_capacity = 512
let compile_cache_hits = ref 0
let compile_cache_misses = ref 0

let of_spec_keyed ?engine ~key spec =
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  let cache_key = (key, engine_name engine) in
  let cached =
    Mutex.protect compile_cache_lock (fun () ->
        match Hashtbl.find_opt compile_cache cache_key with
        | Some sys ->
          incr compile_cache_hits;
          Some sys
        | None ->
          incr compile_cache_misses;
          None)
  in
  match cached with
  | Some sys -> sys
  | None ->
    let sys = of_spec ~engine spec in
    Mutex.protect compile_cache_lock (fun () ->
        if Hashtbl.length compile_cache >= compile_cache_capacity then
          Hashtbl.reset compile_cache;
        if not (Hashtbl.mem compile_cache cache_key) then
          Hashtbl.add compile_cache cache_key sys);
    sys

type compile_cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  by_engine : (string * int) list;
}

let compile_cache_stats () =
  Mutex.protect compile_cache_lock (fun () ->
      let by_engine =
        Hashtbl.fold
          (fun (_, engine) _ acc ->
            let n = Option.value ~default:0 (List.assoc_opt engine acc) in
            (engine, n + 1) :: List.remove_assoc engine acc)
          compile_cache []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      {
        hits = !compile_cache_hits;
        misses = !compile_cache_misses;
        entries = Hashtbl.length compile_cache;
        by_engine;
      })

let compile_cache_clear () =
  Mutex.protect compile_cache_lock (fun () ->
      Hashtbl.reset compile_cache;
      compile_cache_hits := 0;
      compile_cache_misses := 0)
