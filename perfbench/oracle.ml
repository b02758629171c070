(* The answer oracle. Every distinct [normalize] reply is checked against
   the generator's direct model of the term's value, and against the
   normal form computed in this process by [Rewrite.Reference], the
   linear-scan engine that shares no matching code with the server's
   automaton, classified with [Interp.classify]. Every other reply is
   checked against the verdict the generator knows (see {!Gen.expect}). *)

open Adt

let load_library files =
  List.fold_left
    (fun lib (name, text) ->
      match Library.load_source lib text with
      | Ok lib -> lib
      | Error e -> failwith (Fmt.str "%s:%a" name Parser.pp_error e))
    Library.builtin files

let parse_term spec src =
  match Parser.parse_term spec src with
  | Ok t -> t
  | Error e -> failwith (Fmt.str "term %s: %a" src Parser.pp_error e)

(* the oracle's rendering of a term's normal form, as the wire shows it *)
let render_value spec nf =
  Engine.Protocol.sanitize (Fmt.str "%a" Interp.pp_value (Interp.classify spec nf))

let normalize_prefix = "ok normalize steps="

(* the payload of an [ok normalize steps=N PAYLOAD] reply *)
let nf_payload reply =
  let p = String.length normalize_prefix in
  if String.length reply > p && String.equal (String.sub reply 0 p) normalize_prefix
  then
    match String.index_from_opt reply p ' ' with
    | Some i -> Some (String.sub reply (i + 1) (String.length reply - i - 1))
    | None -> None
  else None

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

type entry = {
  spec : string;
  term : string;
  answer : string;  (** The generator's model value. *)
  payload : string;
  mutable count : int;  (** Requests with this line. *)
  mutable bad : int;  (** Of those, already counted as failed. *)
}

type t = {
  lib : Library.t;
  nf : (string, entry) Hashtbl.t;  (** By request line. *)
  mutable order : entry list;  (** Distinct lines, newest first. *)
  mutable requests : int;
  mutable nf_requests : int;
  mutable failed : int;
  mutable complaints : string list;  (** The first few, for the log. *)
}

let create lib =
  {
    lib; nf = Hashtbl.create 4096; order = []; requests = 0; nf_requests = 0;
    failed = 0; complaints = [];
  }

let complain t fmt =
  Fmt.kstr
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.complaints < 5 then t.complaints <- msg :: t.complaints)
    fmt

(* One reply; [None] is a request that got no reply (dropped connection). *)
let observe t (item : Gen.item) reply =
  t.requests <- t.requests + 1;
  match (reply, item.Gen.expect) with
  | None, _ -> complain t "no reply to %s" item.Gen.line
  | Some [], _ -> complain t "empty reply to %s" item.Gen.line
  | Some (first :: _), Gen.Prefix p ->
    if not (starts_with ~prefix:p first) then
      complain t "%s: got %S, expected a reply starting %S" item.Gen.line first p
  | Some (first :: _), Gen.Nf { spec; term; answer } -> (
    t.nf_requests <- t.nf_requests + 1;
    match nf_payload first with
    | None -> complain t "%s: got %S" item.Gen.line first
    | Some payload -> (
      match Hashtbl.find_opt t.nf item.Gen.line with
      | None ->
        let e = { spec; term; answer; payload; count = 1; bad = 0 } in
        Hashtbl.replace t.nf item.Gen.line e;
        t.order <- e :: t.order
      | Some e ->
        e.count <- e.count + 1;
        if not (String.equal payload e.payload) then begin
          e.bad <- e.bad + 1;
          complain t "%s: answered %S after %S" item.Gen.line payload e.payload
        end))

(* Input properties later claims cite, over the normalize requests. *)
type props = {
  distinct : int;
  repeat_share : float;  (** Requests whose term occurred earlier. *)
  mean_size : float;
  max_size : int;
  subterms : int;  (** Distinct subterms of the first [subterm_sample] distinct terms. *)
  subterm_sample : int;
}

let subterm_cap = 5_000

(* The reference engine's normal forms of the distinct terms [lo, hi)
   whose reply the model accepted; returns the indices whose reply
   differs, with the expected rendering. *)
let reference_mismatches lib entries lo hi =
  let systems = Hashtbl.create 8 in
  let system spec =
    match Hashtbl.find_opt systems (Spec.name spec) with
    | Some s -> s
    | None ->
      let s = Rewrite.of_spec ~engine:Rewrite.Reference spec in
      Hashtbl.replace systems (Spec.name spec) s;
      s
  in
  let bad = ref [] in
  for i = lo to hi - 1 do
    let e = entries.(i) in
    if String.equal e.payload e.answer then begin
      let spec = Option.get (Library.find e.spec lib) in
      let nf = Rewrite.Reference.normalize (system spec) (parse_term spec e.term) in
      let expected = render_value spec nf in
      if not (String.equal e.payload expected) then bad := (i, expected) :: !bad
    end
  done;
  List.rev !bad

(* [f 0 n], computed as [f 0 (n/2)] here and [f (n/2) n] in a forked
   child that sends its result back through a pipe. The halves share no
   heap and no intern table, so on two CPUs they take half the time;
   with domains, the shared intern table and collector took most of the
   gain back. *)
let split_fork n (f : int -> int -> (int * string) list) =
  let half = n / 2 in
  if half = 0 then f 0 n
  else begin
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      (* [_exit]: the child must not flush the parent's buffered output *)
      (match Marshal.to_channel oc (f half n) [] with
      | () -> close_out oc; Unix._exit 0
      | exception _ -> Unix._exit 1)
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let reaped = ref false in
      let reap () =
        if not !reaped then begin
          reaped := true;
          close_in_noerr ic;
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "the oracle's reference child failed"
        end
      in
      Fun.protect ~finally:(fun () -> try reap () with Failure _ -> ())
        (fun () ->
          let here = f 0 half in
          let there : (int * string) list =
            try Marshal.from_channel ic with End_of_file -> []
          in
          reap ();
          here @ there)
  end

(* Checks every distinct normal form against the model and the reference
   engine; returns the input properties. Failures land in [t.failed].
   The reference engine costs milliseconds per deep term, so its work is
   split between this process and a child; call this with the server
   stopped and the process free to use a second CPU. *)
let finish t =
  let entries = Array.of_list (List.rev t.order) in
  let n = Array.length entries in
  (* [kept] holds the visited terms alive: a collected term re-created
     later would get a fresh id and be counted twice *)
  let ids = Hashtbl.create 65536 and kept = ref [] in
  let rec visit term =
    if not (Hashtbl.mem ids (Term.id term)) then begin
      Hashtbl.replace ids (Term.id term) ();
      match Term.view term with
      | Term.App (_, args) -> List.iter visit args
      | Term.Ite (c, a, b) -> visit c; visit a; visit b
      | _ -> ()
    end
  in
  let sized = ref 0. and max_size = ref 0 in
  let wrong e fmt =
    Fmt.kstr
      (fun msg ->
        complain t "normalize %s %s: %s" e.spec e.term msg;
        t.failed <- t.failed + (e.count - e.bad - 1);
        e.bad <- e.count)
      fmt
  in
  Array.iteri
    (fun i e ->
      let term = parse_term (Option.get (Library.find e.spec t.lib)) e.term in
      let size = Term.size term in
      sized := !sized +. float (size * e.count);
      max_size := max !max_size size;
      if i < subterm_cap then begin
        visit term;
        kept := term :: !kept
      end;
      if not (String.equal e.payload e.answer) then
        wrong e "answered %S, the model gives %S" e.payload e.answer)
    entries;
  let subterms = Hashtbl.length ids in
  (* let the visited terms go before the reference engine runs *)
  kept := [];
  Hashtbl.reset ids;
  List.iter
    (fun (i, expected) ->
      let e = entries.(i) in
      wrong e "answered %S, the reference engine gives %S" e.payload expected)
    (split_fork n (reference_mismatches t.lib entries));
  {
    distinct = n;
    repeat_share =
      (if t.nf_requests = 0 then 0. else float (t.nf_requests - n) /. float t.nf_requests);
    mean_size = (if t.nf_requests = 0 then 0. else !sized /. float t.nf_requests);
    max_size = !max_size;
    subterms;
    subterm_sample = min n subterm_cap;
  }
