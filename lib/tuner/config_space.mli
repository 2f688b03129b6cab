(** Discrete tuning-parameter spaces (the X̂ of §4).

    A space is an ordered list of named categorical parameters; a
    configuration is a value choice for each, represented as a flat
    [int array] in parameter order (the same ordering as
    {!Codegen.Gemm_params.config_of_array}). *)

type param = {
  name : string;
  values : int array;  (** candidate values, ascending *)
}

type t = param array

val gemm : t
(** The 10-parameter GEMM space of §3.2/§4 (also used for CONV, whose
    C_S/C_L/C_G splits are the K-splits of the implicit GEMM). *)

val table1 : t
(** The §4.2 measurement grid: every parameter a power of two in
    \[1, 16\] with no pre-restriction, the setting in which the paper
    reports 0.1% uniform acceptance. *)

val size : t -> int
(** Cardinality of the full cartesian grid. *)

val value_index : param -> int -> int
(** Position of a value inside a parameter's candidate list.
    Raises [Not_found] for foreign values. *)

val iter : t -> (int array -> unit) -> unit
(** Enumerate the full grid. The callback receives a {e reused} buffer;
    copy it if you keep it. *)

val random : Util.Rng.t -> t -> int array
(** Uniform sample from the grid (fresh array). *)

val describe : t -> int array -> string
(** ["name=value ..."] rendering of a flat configuration, in parameter
    order — used by the lint report. *)
