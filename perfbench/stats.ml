(* Order statistics for the benchmark's timings. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* linear interpolation between the closest ranks *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quantile_sorted: no samples";
  let pos = q *. float (n - 1) in
  let i = int_of_float (Float.floor pos) in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((pos -. float i) *. (s.(i + 1) -. s.(i)))

let median a = quantile_sorted (sorted a) 0.5

(* The interquartile mean: the mean of the middle half of the sorted
   values. Robust to outliers like the median, but it moves smoothly
   when the values fall into two clusters, where the median jumps. *)
let iqm a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.iqm: no samples";
  let drop = n / 4 in
  let mid = Array.sub s drop (n - (2 * drop)) in
  Array.fold_left ( +. ) 0. mid /. float (Array.length mid)

(* The tail percentile rule: a percentile is reported only when at least
   [min_beyond] samples lie above its nearest rank, so a tail figure is
   never the maximum of a handful of samples. *)
let min_beyond = 10
let ladder = [ 90.; 99.; 99.9; 99.99; 99.999 ]

(* nearest rank, 1-based; the epsilon keeps 99% of 1000 at rank 990 *)
let rank n p = max 1 (int_of_float (Float.ceil ((p /. 100. *. float n) -. 1e-9)))
let beyond n p = n - rank n p
let supported n p = beyond n p >= min_beyond

let percentile_sorted s p =
  let n = Array.length s in
  if n = 0 || not (supported n p) then None else Some s.(rank n p - 1)

(* the highest ladder percentile the sample supports *)
let tail_percentile n =
  List.fold_left (fun acc p -> if supported n p then Some p else acc) None ladder

type summary = {
  n : int;
  p50 : float;
  p99 : float option;
  tail : (float * float) option;  (** (percentile, value) *)
}

let summarize a =
  let s = sorted a in
  let n = Array.length s in
  {
    n;
    p50 = (if n = 0 then Float.nan else quantile_sorted s 0.5);
    p99 = percentile_sorted s 99.;
    tail =
      Option.bind (tail_percentile n) (fun p ->
          Option.map (fun v -> (p, v)) (percentile_sorted s p));
  }

let pp_summary ppf s =
  Fmt.pf ppf "p50=%.2f" s.p50;
  (match s.tail with
  | Some (p, v) -> Fmt.pf ppf " p%g=%.2f" p v
  | None -> Fmt.pf ppf " tail=unsupported");
  Fmt.pf ppf " n=%d" s.n

(* A growable float buffer: one sample per request. *)
module Buf = struct
  type t = { mutable a : float array; mutable len : int }

  let create () = { a = Array.make 1024 0.; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0. in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let length b = b.len
  let to_array b = Array.sub b.a 0 b.len
end
