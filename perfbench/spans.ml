(* In-memory spans recorded around the benchmark's calls into the
   program's layers. Each span has a name, a start and an end (monotonic
   nanoseconds), the span that caused it, and the request it belongs to.
   Nothing is written until {!write}, so recording costs two clock reads
   and an array store. *)

type span = {
  name : string;
  start : int64;
  mutable stop : int64;
  parent : int;  (** Index of the parent span; -1 for a root. *)
  req : int;  (** Request index in the workload stream; -1 for none. *)
}

type t = { mutable spans : span array; mutable len : int }

let dummy = { name = ""; start = 0L; stop = 0L; parent = -1; req = -1 }
let create () = { spans = Array.make 4096 dummy; len = 0 }
let length t = t.len
let get t i = t.spans.(i)

let add t ~name ~start ~stop ~parent ~req =
  if t.len = Array.length t.spans then begin
    let a = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 a 0 t.len;
    t.spans <- a
  end;
  t.spans.(t.len) <- { name; start; stop; parent; req };
  t.len <- t.len + 1;
  t.len - 1

(* a span whose end is not known yet: its children are recorded first *)
let open_ t ~name ~parent ~req =
  let now = Clock.now_ns () in
  add t ~name ~start:now ~stop:now ~parent ~req

let close t id = t.spans.(id).stop <- Clock.now_ns ()

let time t ~name ~parent ~req f =
  let start = Clock.now_ns () in
  let r = f () in
  let stop = Clock.now_ns () in
  ignore (add t ~name ~start ~stop ~parent ~req);
  r

let duration_ns s = Int64.to_float (Int64.sub s.stop s.start)

(* The length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if Int64.compare a cb <= 0 then (total, Some (ca, max cb b))
          else (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  Int64.to_float
    (match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a))

(* Self time of every span: its duration minus the part of its interval
   that its children cover (overlapping children count once). *)
let self_times_ns t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      children.(s.parent) <- (s.start, s.stop) :: children.(s.parent)
  done;
  Array.init t.len (fun i ->
      let s = t.spans.(i) in
      duration_ns s -. covered ~lo:s.start ~hi:s.stop children.(i))

(* Durations in microseconds of every span with this name. *)
let durations_us t name =
  let b = Stats.Buf.create () in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if String.equal s.name name then Stats.Buf.push b (duration_ns s *. 1e-3)
  done;
  Stats.Buf.to_array b

(* One line per span: id, parent, request, name, start and end in ns
   relative to the first span, self time in ns. *)
let write t path =
  let self = self_times_ns t in
  let base = if t.len = 0 then 0L else t.spans.(0).start in
  let oc = open_out path in
  output_string oc "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\n";
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\t%.0f\n" i s.parent s.req s.name
      (Int64.sub s.start base) (Int64.sub s.stop base) self.(i)
  done;
  close_out oc
