(** Multi-layer perceptron for performance regression (paper §5,
    Algorithm 1).

    Hidden layers use relu — chosen by the paper because performance
    models are full of maximums (Eq. 2–3) — and the output layer is
    linear. Training minimizes mean squared error with Adam.

    Every weight and bias lives in one flat {!Matrix.storage} vector —
    per layer, [fan_out × fan_in] row-major weights, then [fan_out]
    biases — which the C kernels behind {!forward_batch},
    {!predict_codes} and {!train_batch} read in place, and the last
    updates in place. The loss gradient and Adam's two moments are
    vectors of the same layout. Each kernel has a pure-OCaml reference
    it matches bit for bit: {!predict} for both inference kernels and
    {!train_batch_ref} for training.

    The caller is responsible for feature transformation; the paper's key
    finding (§5.2) that inputs must be passed through a logarithm lives in
    {!Tuner.Features}, and Table 2 reproduces the degradation without
    it. *)

type t

val create : Util.Rng.t -> sizes:int array -> t
(** [create rng ~sizes] with [sizes = [|inputs; hidden...; 1|]]:
    He-normal weights, zero biases. *)

val sizes : t -> int array
(** Layer widths as passed to {!create}: [[|inputs; hidden...; 1|]]. *)

val num_weights : t -> int
(** Total trainable parameters (weights + biases), as reported in
    Table 2's "#weights" column — the length of the parameter vector. *)

val is_finite : t -> bool
(** [true] when every weight and bias is finite. A network that fails
    this predicts NaN or infinity, so {!Tuner.Profile.load} rejects
    it. *)

val predict : t -> Matrix.t -> float array
(** Batch forward pass in pure OCaml: (batch × inputs) → batch
    predictions. This is the reference {!forward_batch} must match bit
    for bit, and the forward half of {!train_batch_ref}. Raises
    [Invalid_argument] if the input width is not the network's. *)

val predict_one : t -> float array -> float
(** Single-sample convenience: wraps the features in a 1-row batch and
    runs {!predict}, one network evaluation per call. *)

val forward_batch : t -> input:Matrix.t -> Matrix.t
(** Batched forward pass: [input] is (batch × inputs), one feature
    vector per row; the result is (batch × 1), the network's one output
    per input row: a whole feature matrix scored at once, as
    {!Tuner.Profile.mse} and the benchmarks do (the planner scores
    coded rows instead, {!predict_codes}). The kernel is C and reads
    the network's parameter
    vector in place: in the hidden layers, output neurons are the lanes
    of SIMD vectors of {!lanes} doubles over weights transposed once
    per call, and exact-zero inputs are skipped, through a bitmask of
    the row's kept inputs, when every weight of the layer is finite;
    the output layer, which has one output, runs {!lanes} rows per
    vector instead, one row per lane, adding every input. The OCaml
    runtime lock is released while it runs, so other domains keep
    collecting. It is reentrant: domains may run it on disjoint
    {!Matrix.sub_rows} views at once.

    Float contract: per element the arithmetic (ascending-[k]
    single-accumulator dot product, then bias add, then relu) is
    identical to {!predict}'s, so outputs are bit-equal to it on the
    same rows, for any batch size (a partly filled last group of rows
    included) and any input values, zeros of either sign and NaN
    included, at every vector width. The
    differential tests in [test/test_mlp.ml] assert exact equality at
    every width the CPU supports ({!forward_batch_at}).

    Raises [Invalid_argument] if [input]'s width is not the network's
    input width, or if the network's output width is not 1 (only
    {!load_from} can give such a network; {!create} builds none). *)

val predict_matrix : t -> Matrix.t -> float array
(** {!forward_batch} with the (batch × 1) result flattened to one
    prediction per row — the batched analogue of {!predict}. *)

type codes = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Rows as codes: each 32-bit code packs one index per coded input
    (see {!predict_codes}). *)

val predict_codes :
  t -> shared:float array -> tables:float array array -> codes -> off:int ->
  len:int -> float array
(** [predict_codes t ~shared ~tables codes ~off ~len] scores rows
    [off] to [off + len - 1] of [codes], one prediction per row, in
    order. A row's inputs are [shared], the same in every row, then one
    value per table: table [j] has [2{^b}] values, and the next [b] bits
    of the row's code, from the lowest up, index it. So the row with
    code [c] stands for the input row
    [shared @ [tables.(0).(i0); tables.(1).(i1); ...]]. This is the
    planning hot path ({!Tuner.Search}), which scores each legality
    class's configuration codes without building a feature matrix.

    The C kernel behind {!forward_batch} runs it at the same {!lanes},
    with the runtime lock released. Once per call, it sums the first
    layer over the shared inputs and multiplies each table value by its
    weights; each row then adds its products to that sum, field by
    field. With no hidden layer, each row's inputs go through the
    row-lane output layer instead.

    Float contract: outputs are bit-equal to {!predict} on the rows the
    codes stand for, at every width, for any values and weights. Each
    row performs {!predict}'s additions in its order: the shared sum is
    [predict]'s running sum after the shared inputs, and each table
    product is the product [predict] forms. The kernel adds every
    term, where {!forward_batch} skips exact-zero inputs of a layer
    whose weights are all finite. Adding [0 * w = ±0] cannot change
    the sum: it starts at [+0.0], so it is never [-0.0]. With a
    non-finite weight, [0 * w] is NaN, and both add it. The
    differential tests in [test/test_mlp.ml] assert exact equality at
    every width the CPU supports ({!predict_codes_at}).

    Raises [Invalid_argument] if [shared] and [tables] do not make the
    network's input width, a table's length is not a power of two, the
    fields need more than 32 bits (then some code could index outside
    its field's table), the row range is not within [codes], or the
    network's output width is not 1. *)

val predict_codes_at :
  lanes:int -> t -> shared:float array -> tables:float array array -> codes ->
  off:int -> len:int -> float array
(** {!predict_codes} through the kernel compiled for [lanes] doubles
    per vector, kept for the tests like {!forward_batch_at}, with the
    same [Invalid_argument] for [lanes]. *)

type adam = {
  lr : float;
  beta1 : float;
  beta2 : float;
  epsilon : float;
}

val default_adam : adam
(** lr 1e-3, β₁ 0.9, β₂ 0.999, ε 1e-8 — the standard Adam settings. *)

val train_batch : t -> adam -> x:Matrix.t -> y:float array -> float
(** One optimizer step on a minibatch; returns the batch MSE before the
    update. Backpropagation fills the whole gradient from the
    pre-update parameters, then one Adam pass updates every weight and
    bias. The step is one C call (the kernel behind {!forward_batch},
    extended with a backward pass and Adam, at the same {!lanes}) that
    reads and updates the parameter, gradient and moment vectors in
    place, with the OCaml runtime lock released; [y] is copied out of
    the OCaml heap first. A lane is one gradient element or parameter,
    so the width changes no element's arithmetic.

    Float contract: the loss, gradient, moments and parameters are
    bit-identical to {!train_batch_ref}'s on the same network and batch,
    NaN positions and signed zeros included. The forward pass is
    {!forward_batch}'s, whose outputs equal {!predict}'s; backward,
    weight gradients sum batch rows in ascending order skipping zero
    deltas, bias gradients sum every row in ascending order, and the
    delta passed down sums output units in ascending order skipping zero
    deltas, then is zeroed where the activation is [<= 0]. The
    differential tests in [test/test_mlp.ml] assert exact equality at
    every width the CPU supports ({!train_batch_at}).

    Raises [Invalid_argument] naming the operand when [x] has no rows,
    [y]'s length is not [x]'s row count, or [x]'s width is not the
    network's input width; the network is then left unchanged. *)

val train_batch_ref : t -> adam -> x:Matrix.t -> y:float array -> float
(** {!train_batch} in pure OCaml: {!predict}'s forward pass, the
    backward pass and Adam loop written out element by element. This is
    the reference the C step must match bit for bit, kept for the tests
    as [Ptx.Interp_ref] is for the interpreter; the library never calls
    it. Same arguments, result and errors as {!train_batch}. *)

val lanes : int
(** Doubles per SIMD vector in the kernels behind {!forward_batch},
    {!predict_codes} and {!train_batch}: 8 (AVX-512F), 4 (AVX2) or 2
    (SSE2 on x86-64, NEON on arm64). The C source is compiled once per
    width for its own target, so the build needs no [-march] flag;
    this is the widest width the running CPU supports, chosen once
    when the program starts. No flag, variable or argument selects
    another, and plans and profiles do not depend on it.
    [search.inference] spans record it. *)

val compiled_lanes : int list
(** Every width the kernels are compiled for on this architecture,
    ascending, read from the C kernel table. The running CPU supports
    those up to {!lanes}; each holds the same code at its own vector
    width. *)

val forward_batch_at : lanes:int -> t -> input:Matrix.t -> Matrix.t
(** {!forward_batch} through the kernel compiled for [lanes] doubles
    per vector instead of {!lanes}. Kept for the tests, as
    {!train_batch_ref} is, so that they hold every width the CPU
    supports to {!predict}; the library never calls it. Raises
    [Invalid_argument] when [lanes] is not in {!compiled_lanes} or is
    above {!lanes} (a width the CPU lacks would fault on an illegal
    instruction). *)

val train_batch_at :
  lanes:int -> t -> adam -> x:Matrix.t -> y:float array -> float
(** {!train_batch} through the kernel compiled for [lanes] doubles per
    vector, kept for the tests like {!forward_batch_at}, with the same
    [Invalid_argument]. *)

val mse : t -> x:Matrix.t -> y:float array -> float
(** Evaluation loss of {!predict} on a dataset (no update). *)

val copy : t -> t
(** Deep copy (parameters and optimizer state). *)

val save_buf : Buffer.t -> t -> unit
(** Append the plain-text serialization — architecture, Adam step, then
    one line of weights and one of biases per layer — to a buffer: how
    {!Tuner.Profile} embeds the network in a checksummed
    {!Util.Artifact} payload. *)

val load_from : (unit -> string) -> t
(** Read {!save_buf}'s serialization from a line producer (raising
    [End_of_file] when out of lines). Every line is parsed and
    length-checked before the parameter vector is allocated. Raises
    [Failure] naming the layer when a line's length does not match the
    header's widths, and raises on other malformed input — callers
    reading checksummed artifacts translate that into an [Error]. The
    optimizer moments start at zero. *)
