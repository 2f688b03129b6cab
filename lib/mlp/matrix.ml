type storage =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { rows : int; cols : int; data : storage }

let create rows cols =
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  Bigarray.Array1.fill data 0.0;
  { rows; cols; data }

let of_array ~rows ~cols a =
  assert (Array.length a = rows * cols);
  let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (rows * cols) in
  for i = 0 to (rows * cols) - 1 do
    Bigarray.Array1.unsafe_set data i (Array.unsafe_get a i)
  done;
  { rows; cols; data }

let to_array t =
  Array.init (t.rows * t.cols) (fun i -> Bigarray.Array1.unsafe_get t.data i)

let copy t =
  let c = create t.rows t.cols in
  Bigarray.Array1.blit t.data c.data;
  c

let get t i j =
  assert (i >= 0 && i < t.rows && j >= 0 && j < t.cols);
  Bigarray.Array1.get t.data ((i * t.cols) + j)

let set t i j v =
  assert (i >= 0 && i < t.rows && j >= 0 && j < t.cols);
  Bigarray.Array1.set t.data ((i * t.cols) + j) v

(* Row-major rows are contiguous, so a row range is a contiguous span of
   the underlying Array1 — Bigarray.Array1.sub shares storage. *)
let sub_rows t ~off ~len =
  assert (off >= 0 && len >= 0 && off + len <= t.rows);
  { rows = len; cols = t.cols;
    data = Bigarray.Array1.sub t.data (off * t.cols) (len * t.cols) }
