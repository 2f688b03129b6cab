(** Unboxed row-major matrices over [Bigarray] storage — the MLP's one
    matrix type. Datasets, training minibatches and the planning path's
    candidate batches are all [Matrix.t], and {!Network} keeps every
    weight and bias in one {!storage} vector.

    The planning hot path evaluates the MLP over tens of thousands of
    candidate configurations per query. Bigarray storage lets rows be
    sliced into zero-copy views for domain fan-out, lets the C kernel
    behind {!Network.forward_batch} read the feature batch and the
    parameters in place outside the OCaml heap, and lets OCaml loops
    over it compile to unchecked loads.

    Shape convention: a batch is [rows × cols] with one configuration's
    feature vector per {e row}, stored row-major — element [(i, j)]
    lives at linear index [i * cols + j]. *)

type storage =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  rows : int;
  cols : int;
  data : storage;  (** row-major, length [rows * cols] *)
}

val create : int -> int -> t
(** [create rows cols] is a zero-filled [rows × cols] matrix. *)

val of_array : rows:int -> cols:int -> float array -> t
(** Copy a row-major [float array] (length must be [rows * cols]) into
    fresh Bigarray storage. *)

val to_array : t -> float array
(** Copy back out to a row-major [float array]. *)

val copy : t -> t
(** Deep copy into fresh storage — for callers that standardize a
    dataset in place without touching the original. *)

val get : t -> int -> int -> float
(** [get m i j] is element [(i, j)]. Bounds-checked; the network's
    kernels use unchecked access internally instead. *)

val set : t -> int -> int -> float -> unit
(** [set m i j v] stores element [(i, j)]. Bounds-checked. *)

val sub_rows : t -> off:int -> len:int -> t
(** [sub_rows m ~off ~len] is a zero-copy view of rows
    [off .. off+len-1]: the view shares storage with [m] (writes are
    visible in both). Rows are contiguous in row-major layout, so a
    range of rows needs no copy. *)
