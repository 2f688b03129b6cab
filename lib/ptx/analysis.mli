(** Static analysis over program bodies: per-category instruction counts,
    printed by the [kernel_explorer] example and used by tests that pin
    the structure of generated kernels. *)

type mix = {
  ialu : int;
  fma : int;
  fp_other : int;
  ld_global : int;
  st_global : int;
  ld_shared : int;
  st_shared : int;
  atom : int;
  bar : int;
  branch : int;
  pred : int;
  mov : int;
}

val of_program : Program.t -> mix
(** Static (per-occurrence, not per-execution) instruction mix of the whole
    body. *)
