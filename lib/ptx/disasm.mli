(** PTX-flavoured textual rendering of programs, for debugging, the
    [ptx_explore] example, and golden tests. The output is close to real
    PTX syntax (guards as [@%p] / [@!%p], [ld.shared.f32], etc.) but is not
    meant to be assembled by ptxas. *)

val special_name : Types.special -> string
val instr : Types.dtype -> Instr.t -> string
(** Render one instruction. *)

val program : Program.t -> string
(** Render a whole program: header with signature and resource usage, then
    one line per instruction. *)
