(* Seeded workload generation. Everything the server sees — the
   specification files and the request lines — is made here from the
   workload name and the seed; the same seed gives the same inputs. *)

type workload = Warm_mix | Cold_rewrite | Store_churn | Author_check

let workloads =
  [
    ("warm-mix", Warm_mix);
    ("cold-rewrite", Cold_rewrite);
    ("store-churn", Store_churn);
    ("author-check", Author_check);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)
let workload_of_string s = List.assoc_opt s workloads

(* What a reply must be. *)
type expect =
  | Nf of { spec : string; term : string; answer : string }
      (** A normal form: the payload after [ok normalize steps=N] must be
          [answer], the generator's direct model of the term's value (a
          list queue, an association-list symbol table), and must match
          the reference engine's normal form of [term]. *)
  | Prefix of string  (** The reply's first line starts with this. *)

type item = {
  line : string;
  body : string list;  (** Raw lines that follow a [session-edit]. *)
  expect : expect;
}

(* {1 Specification sources}

   Queue and Symboltable as in specs/queue.adt and specs/symboltable.adt,
   frozen here on purpose: a benchmark compares a change with its parent
   on the same inputs, so an edit to the repository's spec files must
   not change what the benchmark measures, and the generator's direct
   model below is written against exactly these axioms. *)

let queue_src =
  {|spec Item
  sort Item
  ops
    ITEM1 : -> Item
    ITEM2 : -> Item
    ITEM3 : -> Item
  constructors ITEM1 ITEM2 ITEM3
end

spec Queue
  uses Item
  sort Queue
  ops
    NEW : -> Queue
    ADD : Queue Item -> Queue
    FRONT : Queue -> Item
    REMOVE : Queue -> Queue
    IS_EMPTY? : Queue -> Bool
  constructors NEW ADD
  vars
    q : Queue
    i : Item
  axioms
    [1] IS_EMPTY?(NEW) = true
    [2] IS_EMPTY?(ADD(q, i)) = false
    [3] FRONT(NEW) = error
    [4] FRONT(ADD(q, i)) = if IS_EMPTY?(q) then i else FRONT(q)
    [5] REMOVE(NEW) = error
    [6] REMOVE(ADD(q, i)) = if IS_EMPTY?(q) then NEW else ADD(REMOVE(q), i)
end
|}

let symboltable_src =
  {|spec Identifier
  sort Identifier
  ops
    ID_X : -> Identifier
    ID_Y : -> Identifier
    ID_Z : -> Identifier
    SAME? : Identifier Identifier -> Bool
  constructors ID_X ID_Y ID_Z
  axioms
    SAME?(ID_X, ID_X) = true
    SAME?(ID_X, ID_Y) = false
    SAME?(ID_X, ID_Z) = false
    SAME?(ID_Y, ID_X) = false
    SAME?(ID_Y, ID_Y) = true
    SAME?(ID_Y, ID_Z) = false
    SAME?(ID_Z, ID_X) = false
    SAME?(ID_Z, ID_Y) = false
    SAME?(ID_Z, ID_Z) = true
end

spec Attributelist
  sort Attributelist
  ops
    ATTRS1 : -> Attributelist
    ATTRS2 : -> Attributelist
  constructors ATTRS1 ATTRS2
end

spec Symboltable
  uses Identifier Attributelist
  sort Symboltable
  ops
    INIT : -> Symboltable
    ENTERBLOCK : Symboltable -> Symboltable
    LEAVEBLOCK : Symboltable -> Symboltable
    ADD : Symboltable Identifier Attributelist -> Symboltable
    IS_INBLOCK? : Symboltable Identifier -> Bool
    RETRIEVE : Symboltable Identifier -> Attributelist
  constructors INIT ENTERBLOCK ADD
  vars
    symtab : Symboltable
    id : Identifier
    id1 : Identifier
    attrs : Attributelist
  axioms
    [1] LEAVEBLOCK(INIT) = error
    [2] LEAVEBLOCK(ENTERBLOCK(symtab)) = symtab
    [3] LEAVEBLOCK(ADD(symtab, id, attrs)) = LEAVEBLOCK(symtab)
    [4] IS_INBLOCK?(INIT, id) = false
    [5] IS_INBLOCK?(ENTERBLOCK(symtab), id) = false
    [6] IS_INBLOCK?(ADD(symtab, id, attrs), id1) =
          if SAME?(id, id1) then true else IS_INBLOCK?(symtab, id1)
    [7] RETRIEVE(INIT, id) = error
    [8] RETRIEVE(ENTERBLOCK(symtab), id) = RETRIEVE(symtab, id)
    [9] RETRIEVE(ADD(symtab, id, attrs), id1) =
          if SAME?(id, id1) then attrs else RETRIEVE(symtab, id1)
end
|}

(* An Identifier-style specification with [n] atoms, generated so that a
   one-axiom edit has a cone the benchmark can predict on its own:
   EQ? (n*n ground axioms) and NEXT (n) are independent, IS_LAST? (n)
   mentions both. *)
module Ident = struct
  type axiom = {
    label : string;
    lhs : string;
    rhs : string;
    head : string;
    mentions : string list;  (** Defined operations the equation mentions. *)
  }

  type t = { n : int; name : string; axioms : axiom array }

  let atom i = Printf.sprintf "A%d" i

  (* the seed orders the axioms; [n] fixes the cost *)
  let make ~rng n =
    let eq =
      List.concat_map
        (fun i ->
          List.init n (fun j ->
              let i = i + 1 and j = j + 1 in
              {
                label = Printf.sprintf "eq_%d_%d" i j;
                lhs = Printf.sprintf "EQ?(%s, %s)" (atom i) (atom j);
                rhs = (if i = j then "true" else "false");
                head = "EQ?";
                mentions = [ "EQ?" ];
              }))
        (List.init n Fun.id)
    in
    let next =
      List.init n (fun i ->
          let i = i + 1 in
          {
            label = Printf.sprintf "next_%d" i;
            lhs = Printf.sprintf "NEXT(%s)" (atom i);
            rhs = atom ((i mod n) + 1);
            head = "NEXT";
            mentions = [ "NEXT" ];
          })
    in
    let last =
      List.init n (fun i ->
          let i = i + 1 in
          {
            label = Printf.sprintf "last_%d" i;
            lhs = Printf.sprintf "IS_LAST?(%s)" (atom i);
            rhs = Printf.sprintf "EQ?(NEXT(%s), A1)" (atom i);
            head = "IS_LAST?";
            mentions = [ "IS_LAST?"; "EQ?"; "NEXT" ];
          })
    in
    let axioms = Array.of_list (eq @ next @ last) in
    for i = Array.length axioms - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let a = axioms.(i) in
      axioms.(i) <- axioms.(j);
      axioms.(j) <- a
    done;
    { n; name = Printf.sprintf "Ident%d" n; axioms }

  (* [toggled.(k)] rewrites axiom k's right-hand side r to the equal
     [if true then r else r]: a one-equation edit that keeps the
     specification complete and consistent *)
  let source t toggled =
    let b = Buffer.create 8192 in
    let p fmt = Printf.bprintf b fmt in
    p "spec %s\n  sort Atom\n  ops\n" t.name;
    for i = 1 to t.n do
      p "    %s : -> Atom\n" (atom i)
    done;
    p "    EQ? : Atom Atom -> Bool\n    NEXT : Atom -> Atom\n";
    p "    IS_LAST? : Atom -> Bool\n  constructors";
    for i = 1 to t.n do
      p " %s" (atom i)
    done;
    p "\n  axioms\n";
    Array.iteri
      (fun k a ->
        if toggled.(k) then
          p "    [%s] %s = if true then %s else %s\n" a.label a.lhs a.rhs a.rhs
        else p "    [%s] %s = %s\n" a.label a.lhs a.rhs)
      t.axioms;
    p "end\n";
    Buffer.contents b

  (* The invalidation cone of an edit to axiom [k], computed from the
     generator's own record of which operations each equation mentions:
     an operation is dirty when it heads the edited axiom or when an
     axiom defining it mentions a dirty operation; the cone is every
     axiom mentioning a dirty operation. *)
  let cone t k =
    let dirty = Hashtbl.create 8 in
    Hashtbl.replace dirty t.axioms.(k).head ();
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun a ->
          if
            (not (Hashtbl.mem dirty a.head))
            && List.exists (Hashtbl.mem dirty) a.mentions
          then begin
            Hashtbl.replace dirty a.head ();
            changed := true
          end)
        t.axioms
    done;
    Array.fold_left
      (fun acc a -> if List.exists (Hashtbl.mem dirty) a.mentions then acc + 1 else acc)
      0 t.axioms
end

(* {1 Term generators} *)

let pick rng a = a.(Random.State.int rng (Array.length a))
let items = [| "ITEM1"; "ITEM2"; "ITEM3" |]
let ids = [| "ID_X"; "ID_Y"; "ID_Z" |]
let attrs = [| "ATTRS1"; "ATTRS2" |]

(* A queue of [n] random items, drained by [k < n] removals, observed.
   Returns the term and its value. *)
let queue_drain rng ~n ~k =
  let front = Random.State.bool rng in
  let queue = Array.init n (fun _ -> pick rng items) in
  let b = Buffer.create (16 * (n + k)) in
  Buffer.add_string b (if front then "FRONT(" else "IS_EMPTY?(");
  for _ = 1 to k do
    Buffer.add_string b "REMOVE("
  done;
  for _ = 1 to n do
    Buffer.add_string b "ADD("
  done;
  Buffer.add_string b "NEW";
  Array.iter (fun item -> Printf.bprintf b ", %s)" item) queue;
  for _ = 1 to k + 1 do
    Buffer.add_char b ')'
  done;
  (Buffer.contents b, if front then queue.(k) else "false")

(* A lookup in a random table of [depth] levels (level 0 innermost). The
   looked-up identifier is entered at most once, at the bottom, so the
   lookup walks the whole table. Returns the term and its value. *)
let table_query rng ~depth =
  let target = Random.State.int rng (Array.length ids) in
  let other () = ids.((target + 1 + Random.State.int rng 2) mod 3) in
  let levels =
    Array.init depth (fun l ->
        if l = 0 then
          if Random.State.bool rng then Some (ids.(target), pick rng attrs) else None
        else if Random.State.int rng 10 = 0 then None
        else Some (other (), pick rng attrs))
  in
  let retrieve = Random.State.bool rng in
  let b = Buffer.create (24 * depth) in
  Buffer.add_string b (if retrieve then "RETRIEVE(" else "IS_INBLOCK?(");
  for l = depth - 1 downto 0 do
    Buffer.add_string b (match levels.(l) with None -> "ENTERBLOCK(" | Some _ -> "ADD(")
  done;
  Buffer.add_string b "INIT";
  Array.iter
    (function
      | None -> Buffer.add_char b ')'
      | Some (id, a) -> Printf.bprintf b ", %s, %s)" id a)
    levels;
  Printf.bprintf b ", %s)" ids.(target);
  (* the paper's semantics, scanning from the newest entry: RETRIEVE
     looks through block boundaries, IS_INBLOCK? stops at the first *)
  let rec scan l =
    if l < 0 then if retrieve then "error : Attributelist" else "false"
    else
      match levels.(l) with
      | Some (id, a) when String.equal id ids.(target) -> if retrieve then a else "true"
      | None when not retrieve -> "false"
      | _ -> scan (l - 1)
  in
  (Buffer.contents b, scan (depth - 1))

let between rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* Term sizes of a workload: table depth, queue length, removals. *)
type sizes = { depth : int * int; queue : int * int; removes : int * int }

(* a normalize request over Queue or Symboltable, half each *)
let normalize_item sizes rng =
  let range (lo, hi) = between rng lo hi in
  if Random.State.bool rng then
    let n = range sizes.queue in
    let k = min (n - 1) (range sizes.removes) in
    let term, answer = queue_drain rng ~n ~k in
    ("Queue", term, answer)
  else
    let term, answer = table_query rng ~depth:(range sizes.depth) in
    ("Symboltable", term, answer)

let normalize_line (spec, term, answer) =
  {
    line = Printf.sprintf "normalize %s %s" spec term;
    body = [];
    expect = Nf { spec; term; answer };
  }

(* {1 Workloads} *)

type t = {
  workload : workload;
  seed : int;
  files : (string * string) list;  (** File name and text. *)
  setup : item list;
      (** Sent on the first connection after spawn, inside [setup_s]. *)
  prefill : (string * string) list;
      (** [(spec, term)] pairs persisted into the store before spawn. *)
  stream : unit -> unit -> item;
      (** A fresh generator of the request stream: same seed, same items. *)
  requests_per_second : int option;
      (** When set, the timed run is a fixed number of requests, this
          rate times the run's seconds, instead of a fixed time. Set where
          the server's state grows with every request (store-churn's
          store): in a fixed time, a faster server would grow a larger
          store and measure itself on it. *)
}

let rng seed salt = Random.State.make [| seed; salt |]

(* distinct terms, drawn until [count] are found *)
let distinct rng count draw =
  let seen = Hashtbl.create count in
  let rec go acc k =
    if k = count then Array.of_list (List.rev acc)
    else
      let x = draw rng in
      if Hashtbl.mem seen x then go acc k
      else begin
        Hashtbl.replace seen x ();
        go (x :: acc) (k + 1)
      end
  in
  go [] 0

(* Zipf(1.1) over [n] ranks: a few hot terms, a long tail. The exponent
   is assumed, not taken from recorded traffic (the repository has none);
   see README.md. *)
let zipf_sampler n =
  let w = Array.init n (fun k -> 1. /. (float (k + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun k x ->
      acc := !acc +. (x /. total);
      cdf.(k) <- !acc)
    w;
  fun rng ->
    let u = Random.State.float rng 1. in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

let cold_sizes = { depth = (40, 56); queue = (24, 40); removes = (1, 4) }
let churn_sizes = { depth = (24, 40); queue = (24, 40); removes = (1, 4) }
let warm_pool_size = 40

(* The warm pool's shape is fixed by rank and only its contents come from
   the seed: the rank sets a term's Zipf weight, so the weighted mix of
   kinds and sizes, which sets what a warm request costs, is the same
   for every seed. *)
let warm_pool seed =
  let r = rng seed 1 in
  let seen = Hashtbl.create 64 in
  Array.init warm_pool_size (fun rank ->
      let size = 4 + (rank / 2 mod 9) in
      let rec draw () =
        let item =
          if rank mod 2 = 0 then
            let t, a = queue_drain r ~n:size ~k:(size / 2) in
            ("Queue", t, a)
          else
            let t, a = table_query r ~depth:size in
            ("Symboltable", t, a)
        in
        if Hashtbl.mem seen item then draw ()
        else begin
          Hashtbl.replace seen item ();
          item
        end
      in
      normalize_line (draw ()))

let prefill_records = 2000

(* store-churn's requests per second of the timed run, about what the
   server answers on the 2-core machine the benchmark was tuned on *)
let churn_rate = 800

let make workload ~seed =
  let files_nf = [ ("queue.adt", queue_src); ("symboltable.adt", symboltable_src) ] in
  match workload with
  | Warm_mix ->
    let pool = warm_pool seed in
    let draw = zipf_sampler (Array.length pool) in
    {
      workload; seed; files = files_nf; prefill = []; requests_per_second = None;
      setup = Array.to_list pool;
      stream =
        (fun () ->
          let r = rng seed 2 in
          fun () -> pool.(draw r));
    }
  | Cold_rewrite ->
    {
      workload; seed; files = files_nf; prefill = []; requests_per_second = None;
      setup = [ normalize_line ("Queue", "FRONT(ADD(NEW, ITEM1))", "ITEM1") ];
      stream =
        (fun () ->
          let r = rng seed 2 in
          fun () -> normalize_line (normalize_item cold_sizes r));
    }
  | Store_churn ->
    let stored = distinct (rng seed 1) prefill_records (normalize_item churn_sizes) in
    {
      workload; seed; files = files_nf; requests_per_second = Some churn_rate;
      prefill = Array.to_list (Array.map (fun (spec, term, _) -> (spec, term)) stored);
      setup = [ normalize_line stored.(0) ];
      stream =
        (fun () ->
          let r = rng seed 2 in
          fun () ->
            if Random.State.bool r then normalize_line (pick r stored)
            else normalize_line (normalize_item churn_sizes r));
    }
  | Author_check ->
    let ident = Ident.make ~rng:(rng seed 1) 7 in
    let clean = [ "Queue"; "Symboltable"; ident.Ident.name ] in
    let goals =
      [|
        ("Queue", "q:Queue,i:Item", "IS_EMPTY?(REMOVE(ADD(q, i)))", "IS_EMPTY?(q)");
        ("Symboltable", "s:Symboltable", "LEAVEBLOCK(ENTERBLOCK(s))", "s");
        ( "Symboltable", "s:Symboltable,i:Identifier",
          "RETRIEVE(ENTERBLOCK(s), i)", "RETRIEVE(s, i)" );
        (ident.Ident.name, "x:Atom", "EQ?(x, x)", "true");
        (ident.Ident.name, "x:Atom", "IS_LAST?(x)", "EQ?(NEXT(x), A1)");
      |]
    in
    let axioms = Array.length ident.Ident.axioms in
    {
      workload; seed; requests_per_second = None;
      files = files_nf @ [ ("ident.adt", Ident.source ident (Array.make axioms false)) ];
      prefill = [];
      setup =
        [
          {
            line = "session-open " ^ ident.Ident.name;
            body = [];
            expect =
              Prefix
                (Printf.sprintf
                   "ok session-open %s version=1 axioms=%d sig_changed=false \
                    changed=%d cone=%d checked=%d reused=0 "
                   ident.Ident.name axioms axioms axioms axioms);
          };
        ];
      stream =
        (fun () ->
          let r = rng seed 2 in
          let toggled = Array.make axioms false in
          let version = ref 1 in
          let verb spec_of = pick r (Array.of_list spec_of) in
          (* every verb equally often: the repository records no editor
             or batch traffic to take a mix from *)
          fun () ->
            match Random.State.int r 5 with
            | 0 ->
              let s = verb clean in
              {
                line = "check " ^ s; body = [];
                expect = Prefix (Printf.sprintf "ok check %s complete=true consistent=true missing=0 " s);
              }
            | 1 ->
              let s = verb clean in
              { line = "lint " ^ s; body = []; expect = Prefix (Printf.sprintf "ok lint %s findings=0" s) }
            | 2 ->
              let s = verb clean in
              { line = "skeletons " ^ s; body = []; expect = Prefix (Printf.sprintf "ok skeletons %s missing=0" s) }
            | 3 ->
              let s, vars, lhs, rhs = pick r goals in
              {
                line = Printf.sprintf "prove %s %s %s == %s" s vars lhs rhs;
                body = [];
                expect = Prefix (Printf.sprintf "ok prove %s proved " s);
              }
            | _ ->
              let k = Random.State.int r axioms in
              toggled.(k) <- not toggled.(k);
              incr version;
              let cone = Ident.cone ident k in
              let body =
                String.split_on_char '\n'
                  (String.trim (Ident.source ident toggled))
              in
              {
                line =
                  Printf.sprintf "session-edit lines=%d %s" (List.length body)
                    ident.Ident.name;
                body;
                expect =
                  Prefix
                    (Printf.sprintf
                       "ok session-edit %s version=%d axioms=%d \
                        sig_changed=false changed=2 cone=%d checked=%d \
                        reused=%d "
                       ident.Ident.name !version axioms cone cone
                       (axioms - cone));
              });
    }
