(* CLOCK_MONOTONIC in nanoseconds: wall-clock steps never reach a
   latency sample, and sub-microsecond differences survive *)
let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-3
