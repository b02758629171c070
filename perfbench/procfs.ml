(* Server-side readings taken from outside the server: its memory from
   /proc/<pid>, its CPU time from its CPU-time clock. Linux-only: other
   systems have no /proc in this format, and may refuse another process's
   CPU-time clock. *)

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)

(* the kB value of a /proc/<pid>/status line such as "VmHWM:  1234 kB" *)
let status_kb pid key =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.equal (String.sub line 0 i) key ->
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        Some (int_of_string (List.hd (String.split_on_char ' ' v)))
      | _ -> None)
    (String.split_on_char '\n' s)

(* peak resident set size in MB *)
let peak_rss_mb pid =
  match status_kb pid "VmHWM" with
  | Some kb -> float kb /. 1024.
  | None -> failwith "no VmHWM in /proc status"

external cpu_ns : int -> int64 = "perfbench_process_cpu_ns"

(* user+sys CPU seconds of every thread of the process, from its CPU-time
   clock: nanoseconds, where /proc/<pid>/stat counts ticks of 10 ms *)
let cpu_s pid =
  let ns = cpu_ns pid in
  if Int64.compare ns 0L < 0 then failwith "cannot read the server's CPU-time clock";
  Int64.to_float ns *. 1e-9
