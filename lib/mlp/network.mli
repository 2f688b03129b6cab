(** Multi-layer perceptron for performance regression (paper §5,
    Algorithm 1).

    Hidden layers use relu — chosen by the paper because performance
    models are full of maximums (Eq. 2–3) — and the output layer is
    linear. Training minimizes mean squared error with Adam.

    The caller is responsible for feature transformation; the paper's key
    finding (§5.2) that inputs must be passed through a logarithm lives in
    {!Tuner.Features}, and Table 2 reproduces the degradation without
    it. *)

type t

val create : Util.Rng.t -> sizes:int array -> t
(** [create rng ~sizes] with [sizes = [|inputs; hidden...; 1|]]. *)

val sizes : t -> int array
(** Layer widths as passed to {!create}: [[|inputs; hidden...; 1|]]. *)

val num_weights : t -> int
(** Total trainable parameters (weights + biases), as reported in
    Table 2's "#weights" column. *)

val is_finite : t -> bool
(** [true] when every weight and bias is finite. A network that fails
    this predicts NaN or infinity, so {!Tuner.Profile.load} rejects
    it. *)

val predict : t -> Tensor.t -> float array
(** Batch forward pass: (batch × inputs) → batch predictions. *)

val predict_one : t -> float array -> float
(** Single-sample convenience: wraps the features in a 1-row batch and
    runs {!predict}. This is the {e scalar} planning path — one network
    evaluation per candidate configuration — retained as the
    differential reference for {!forward_batch}. *)

val forward_batch : t -> input:Matrix.t -> Matrix.t
(** Batched forward pass over unboxed {!Matrix} storage: [input] is
    (batch × inputs), one feature vector per row; the result is
    (batch × outputs), one row of network outputs per input row. This
    is the planning hot path that scores tens of thousands of candidate
    configurations per query ({!Tuner.Search}). The kernel is C: output
    neurons are 128-bit SIMD lanes over weights transposed once per
    call, exact-zero inputs are skipped when every weight of the layer
    is finite, and the OCaml runtime lock is released while it runs, so
    other domains keep collecting. It is reentrant: domains may run it
    on disjoint {!Matrix.sub_rows} views at once.

    Float contract: per element the arithmetic (ascending-[k]
    single-accumulator dot product, then bias add, then relu) is
    identical to {!predict}'s {!Tensor} pipeline, so outputs are
    bit-equal to the scalar path on the same rows, for any batch size
    and any input values, zeros of either sign included. The
    differential tests in [test/test_mlp.ml] assert exact equality.

    Raises [Invalid_argument] if [input]'s width is not the network's
    input width. *)

val predict_matrix : t -> Matrix.t -> float array
(** {!forward_batch} with the (batch × 1) result flattened to one
    prediction per row — the batched analogue of {!predict}. *)

type adam = {
  lr : float;
  beta1 : float;
  beta2 : float;
  epsilon : float;
}

val default_adam : adam
(** lr 1e-3, β₁ 0.9, β₂ 0.999, ε 1e-8 — the standard Adam settings. *)

val train_batch : t -> adam -> x:Tensor.t -> y:float array -> float
(** One optimizer step on a minibatch; returns the batch MSE before the
    update. *)

val mse : t -> x:Tensor.t -> y:float array -> float
(** Evaluation loss on a dataset (no update). *)

val copy : t -> t
(** Deep copy (weights and optimizer state). *)

val save : t -> out_channel -> unit
(** Write the plain-text serialization (architecture then weights) used
    by the profile cache. *)

val load : in_channel -> t
(** Read back what {!save} wrote. *)

val save_buf : Buffer.t -> t -> unit
(** Append the same serialization to a buffer — how {!Tuner.Profile}
    embeds the weights in a checksummed {!Util.Artifact} payload. *)

val load_from : (unit -> string) -> t
(** Read the serialization from a line producer (raising [End_of_file]
    when out of lines). Raises on malformed input — callers reading
    checksummed artifacts translate that into an [Error]. *)
