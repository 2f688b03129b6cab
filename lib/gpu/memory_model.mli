(** DRAM / L2 behaviour model.

    Captures the two cache effects §8.1 of the paper leans on: (1) tiles
    of the same operand panel loaded by co-resident blocks hit in L2 when
    the combined streaming footprint fits, and (2) deeper prefetching
    (larger U) keeps co-resident blocks' access windows aligned, improving
    inter-block reuse ("ISAAC learns to use resources still available to
    pre-fetch more data …, resulting in better cache-hit rate"). *)

val l2_bandwidth_gbs : Device.t -> float
(** Modeled L2 bandwidth (a fixed multiple of DRAM bandwidth). *)

type l2_result = {
  hit_a : float;         (** fraction of A-side loads served by L2 *)
  hit_b : float;
  working_set_bytes : float;
}

val l2_hits :
  Device.t ->
  concurrent_blocks:int ->
  grid_m:int ->
  grid_n:int ->
  tile_m:int ->
  tile_n:int ->
  u_depth:int ->
  elem_bytes:int ->
  l2_result
(** Inter-block L2 reuse for a blocked GEMM-shaped access pattern with
    row-major block scheduling: blocks sharing a row re-load the same
    B panel, blocks sharing a column the same A panel. *)

val stride_conflict_degree : distinct:int -> stride:int -> int
(** Serialization degree of a warp-wide shared access touching
    [distinct] words spaced [stride] apart: [ceil (min distinct 32 /
    (32 / gcd stride 32))], i.e. 1 when conflict-free or broadcast,
    up to 32 when every lane maps to the same bank. *)

val latency_limited_bw_gbs :
  Device.t -> warps_per_sm:int -> mlp:float -> float
(** Little's-law bandwidth ceiling: bytes in flight / memory latency,
    summed over SMs. [mlp] is outstanding 128-byte transactions per
    warp. *)
