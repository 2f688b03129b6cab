(* Clock, order statistics and process memory for the benchmark.

   Op latencies reach down to microseconds (a warm plan hit), below the
   resolution of [Unix.gettimeofday], so every timing reads the
   monotonic nanosecond clock. *)

let now_ns () = Monotonic_clock.now ()

let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let since t0 = seconds_between t0 (now_ns ())

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Nearest-rank percentile, [q] in (0, 1]: the smallest sample with at
   least a share [q] of the samples at or below it. *)
let percentile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs

let mean xs = if Array.length xs = 0 then 0.0 else sum xs /. float_of_int (Array.length xs)

let geomean xs =
  if Array.length xs = 0 then nan
  else exp (mean (Array.map log xs))

(* Samples strictly above the nearest-rank [q] percentile. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* Resident-set high-water mark of this process, in MiB (Linux
   /proc/self/status VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* A growable float buffer for per-op latencies (a run records up to a
   few million). *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end
