(** Deterministic, splittable pseudo-random number generation.

    All stochastic components of the reproduction (measurement noise,
    samplers, MLP initialization, train/test shuffling) draw from this
    module rather than [Stdlib.Random] so that every experiment is exactly
    reproducible from a seed.  The generator is xoshiro256**, seeded via
    splitmix64 as recommended by its authors. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a fresh generator from a 63-bit seed. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Deriving per-component generators from one root seed keeps experiments
    reproducible even when components consume varying amounts of
    randomness. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future stream). *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val uniform : t -> float
(** [uniform t] is uniform in \[0, 1). *)

val bool : t -> bool
(** Fair coin flip. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)

val choice : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val choice_weighted : t -> float array -> int
(** [choice_weighted t w] samples index [i] with probability
    [w.(i) / sum w].  Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of \[0, n). *)
