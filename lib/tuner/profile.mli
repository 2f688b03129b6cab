(** Trained input-aware tuning profiles: the artefact ISAAC ships per
    (device, operation) — a regression network plus its target scaler —
    with plain-text persistence so runtime inference can skip tuning
    ("cached on the filesystem", §6). *)

type t = {
  op : [ `Gemm | `Conv ];
  device : string;           (** device name the profile was tuned on *)
  net : Mlp.Network.t;
  scaler : Features.scaler;
  log_features : bool;       (** whether features go through log2 (always
                                 true for shipped profiles; false exists
                                 for the Table 2 ablation) *)
  feat_mean : float array;   (** per-feature standardization, fitted on
                                 the training set *)
  feat_std : float array;
}

val train :
  ?arch:int array ->
  ?epochs:int ->
  ?log_features:bool ->
  Util.Rng.t ->
  Dataset.t ->
  t
(** Fit a network on a dataset (standardized log-TFLOPS target). [arch]
    lists the hidden-layer sizes; it defaults to 32-64-32, Table 2's
    best accuracy-per-weight architecture. *)

val mse : t -> Dataset.t -> float
(** Cross-validation MSE of the profile on a held-out dataset, in the
    standardized log space Table 2 reports. Scores a standardized copy
    of the dataset's features through {!predict_std_matrix}; the
    dataset is not modified. *)

val predict_tflops : t -> float array -> float
(** Model prediction for a feature vector, in TFLOPS. *)

val predict_std_one : t -> float array -> float
(** One feature vector through feature standardization and the
    network's pure-OCaml forward pass ({!Mlp.Network.predict}), in the
    standardized log-target space: the reference that
    {!predict_std_matrix}, and {!Search}'s scoring, must match. *)

val standardize_feature : t -> int -> float -> float
(** [standardize_feature t j v] is feature [j]'s value [v] standardized,
    [(v - feat_mean.(j)) / feat_std.(j)]: the one expression
    {!predict_std_matrix} and {!predict_std_one} also apply to every
    element, so a value standardized here is bit-equal to theirs.
    {!Search} builds its per-request tables of standardized feature
    values with it and scores codes over them through
    {!Mlp.Network.predict_codes} directly. *)

val predict_std_matrix : t -> Mlp.Matrix.t -> float array
(** Batched counterpart of {!predict_std_one}, one un-standardized
    feature row (matching [log_features]) per candidate, in the
    standardized log-target space the exhaustive search ranks by.
    {b Mutates its argument}: the matrix is standardized in place
    before {!Mlp.Network.forward_batch} runs over it (callers fill a
    fresh matrix per query). Per row the arithmetic is identical to
    {!predict_std_one}'s, so predictions are bit-equal to it on the
    same features. {!mse} scores through it; the search does not (see
    {!standardize_feature}). *)

val save : t -> string -> unit
(** Persist through {!Util.Artifact.write} (kind ["isaac-profile"]):
    atomic temp-fsync-rename with a checksummed header, so a crash
    mid-save leaves any previous profile intact. *)

val load : string -> (t, string) result
(** Validating load: header kind/version, payload length and checksum
    are checked before a byte is parsed, and parse failures surface as
    [Error] — a corrupted profile is never partially loaded. A profile
    that parses but cannot plan is an [Error] too: a network whose
    input width is not {!Features.dim} or whose output width is not 1,
    a non-finite weight, bias, feature mean or target-scaler value, or
    a feature std that is not finite and positive. *)

val load_exn : string -> t
(** {!load}, raising [Failure] on [Error] (CLI/test convenience). *)
