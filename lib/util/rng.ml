type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: used only to expand a seed into the four xoshiro words. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k = Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

let next t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (next t) land max_int in
  create seed

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let int t bound =
  assert (bound > 0);
  let x = Int64.to_int (next t) land max_int in
  x mod bound

let int_in t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let uniform t =
  (* 53 high-quality mantissa bits. *)
  let x = Int64.shift_right_logical (next t) 11 in
  Int64.to_float x *. 0x1.0p-53

let float t bound = uniform t *. bound
let bool t = Int64.logand (next t) 1L = 1L

let gaussian t =
  let rec draw () =
    let u = uniform t in
    if u <= 1e-300 then draw () else u
  in
  let u1 = draw () and u2 = uniform t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let choice_weighted t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  assert (total > 0.0);
  let x = float t total in
  let n = Array.length w in
  let rec go i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if x < acc then i else go (i + 1) acc
  in
  go 0 0.0

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
