(* Machine-speed calibration.

   The benchmark shares its cores with other tenants, and their load
   swings this core's throughput by up to 2x within seconds (a fixed
   integer loop ran between 108 and 207 ms within one 7-second window on
   a shared 2-core x86-64 virtual machine). Raw op latencies inherit
   those swings, so the end-to-end timings are reported at a reference
   machine speed instead: the benchmark times a fixed probe next to the
   ops it measures, and scales each op's wall time by [reference_s] over
   the probe's time around it. The probe is the benchmark's own code and
   calls none of the repository's libraries, so a change to the program
   under test cannot move it. Raw wall times are reported alongside in the run's
   knobs line.

   The probe runs dependent loads over a 256 KiB table, then a burst of
   short-lived allocation, because the workloads differ: the load-only
   half tracked the compute-bound [tune] ops best and the allocation
   half the allocation-heavy [warm_serve] requests, and the mix came
   within a point or two of the better half on both. *)

let table = Array.init 32768 (fun i -> (i * 7919) land 32767)

let probe () =
  let s = ref 0 in
  for r = 1 to 3 do
    for i = 0 to 32767 do
      s := !s + (((table.(table.(i)) * r) lxor i) land 4095)
    done
  done;
  let live = ref [] in
  for r = 1 to 12 do
    let l = List.init 200 (fun j -> (j * r, string_of_int j)) in
    live := List.rev_map (fun (a, b) -> a + String.length b) l :: !live;
    if r mod 4 = 0 then live := []
  done;
  ignore (Sys.opaque_identity (!s, !live))

(* Probe time that defines the reference speed; the probe takes 0.3 to
   0.8 ms on one core of a shared 2-core x86-64 virtual machine. *)
let reference_s = 500e-6

let measure () = snd (Measure.timed probe)

(* Scale factor for work done between two probe readings. *)
let factor before after = reference_s /. (0.5 *. (before +. after))

(* [steps] run in order, each timed and scaled by the probes read just
   before and after it. Returns the scaled and the raw total seconds. *)
let timed_steps steps =
  let before = ref (measure ()) in
  List.fold_left
    (fun (scaled, raw) step ->
      let (), dt = Measure.timed step in
      let after = measure () in
      let f = factor !before after in
      before := after;
      (scaled +. (dt *. f), raw +. dt))
    (0.0, 0.0) steps

(* Probe readings taken by the timed loop: reading [k] precedes the
   [k]-th block of ops, and a final reading follows the last block. *)
let readings = Measure.Samples.create ()

let reading () = Measure.Samples.push readings (measure ())

(* Op latencies scaled by the readings around the block each op ran in. *)
let scale ~every raw =
  let r = Measure.Samples.to_array readings in
  let blocks = Array.length r - 1 in
  Array.mapi
    (fun j x ->
      let k = min (j / every) (blocks - 1) in
      x *. factor r.(k) r.(k + 1))
    raw
