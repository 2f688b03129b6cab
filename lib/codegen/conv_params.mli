(** Parameterization of multi-channel convolution (paper §3.3).

    The convolution O_{k,:,:,n} = Σ_c I_{c,:,:,n} ⋆ F_{c,:,:,k} is
    reformulated as an implicit matrix multiplication of shape
    (M̂, N̂, K̂) = (N·P·Q, K, C·R·S): every output element is an inner
    product of C·R·S image and filter elements, with image loads
    scrambled through a precomputed indirection table.

    The paper tiles across five dimensions (K, P, Q, N, C); as in its own
    implementation the reduction splits C_S/C_L/C_G are the GEMM splits
    K_S/K_L/K_G applied to the C·R·S axis, and we tile the fused N·P·Q
    axis jointly (a documented simplification of the 5-D tile shape that
    preserves the tiling/occupancy trade-offs).

    Layouts (row-major): I is N×C×H×W, F is C×R×S×K (so the filter is
    directly the K̂×N̂ matrix), O is N×P×Q×K. Strides and symmetric
    padding are supported: H = (P−1)·stride + R − 2·pad (the DeepBench
    shapes in Table 5 are given by their output sizes). Padding is
    realized by gathering from a host-side zero-padded copy of the image
    — functionally identical to cuDNN's masked taps, and the timing model
    is unaffected because the gather indirection already covers it. *)

type input = {
  n : int;   (** batch *)
  c : int;   (** input channels *)
  k : int;   (** output channels / filters *)
  p : int;   (** output height *)
  q : int;   (** output width *)
  r : int;   (** filter height *)
  s : int;   (** filter width *)
  stride : int;
  pad : int; (** symmetric spatial zero-padding *)
  dtype : Ptx.Types.dtype;
}

val input :
  ?dtype:Ptx.Types.dtype ->
  ?stride:int ->
  ?pad:int ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit -> input
(** Raises [Invalid_argument] naming the field when [stride] is below 1
    or [pad] below 0, naming the first field above
    {!Gemm_params.max_dim}, or the factors of an implicit-GEMM extent,
    n·p·q or c·r·s, whose product is (checked without overflow), and
    naming ["pad"] when the input it leaves, {!h} × {!w}, is empty
    (either extent below 1). *)

val h : input -> int
(** Input height: (P−1)·stride + R − 2·pad. *)

val w : input -> int
(** Input width: (Q−1)·stride + S − 2·pad. *)

val h_padded : input -> int
(** Height of the zero-padded image the kernel gathers from: H + 2·pad. *)

val w_padded : input -> int

val npq : input -> int
(** M̂: the fused output-pixel dimension. *)

val crs : input -> int
(** K̂: the reduction length. *)

val gemm_input : input -> Gemm_params.input
(** The implicit-GEMM view: (NPQ, K, CRS) with no transpositions. *)

val structurally_legal : input -> Gemm_params.config -> bool

val cost : ?bounds:Gemm_params.bounds_mode -> input -> Gemm_params.config ->
  Gpu.Kernel_cost.t
(** GEMM cost adjusted for the gather: indirection-table loads add
    integer and L2 traffic, and gathered image loads coalesce slightly
    worse than dense panels. *)

val describe_name : input -> Gemm_params.config -> string
