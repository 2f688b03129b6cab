(** Minibatch training loops and cross-validation for {!Network}. *)

type history = {
  epoch_train_mse : float array;  (** mean minibatch loss per epoch *)
  epoch_val_mse : float array;    (** validation MSE per epoch (empty if
                                      no validation set was supplied) *)
}

val fit :
  ?batch_size:int ->
  ?epochs:int ->
  ?adam:Network.adam ->
  ?validation:Matrix.t * float array ->
  Util.Rng.t ->
  Network.t ->
  x:Matrix.t ->
  y:float array ->
  history
(** Shuffled minibatch Adam training (defaults: batch 64, 20 epochs).
    Each epoch takes one step per full batch of shuffled rows; with
    fewer rows than [batch_size] it takes one step on all of them.
    Raises [Invalid_argument] naming the argument when [batch_size] is
    below 1, [epochs] is negative, [y]'s length is not [x]'s row count,
    or [x] has no rows. *)

val split :
  Util.Rng.t ->
  test_fraction:float ->
  x:Matrix.t ->
  y:float array ->
  (Matrix.t * float array) * (Matrix.t * float array)
(** Random train/test split; the paper's Table 2 measures MSE "on a fixed
    set of data-points separate from the samples used for training". *)

val rows : Matrix.t -> int list -> Matrix.t
(** Copy a row subset, in the given order, into a fresh matrix. *)
