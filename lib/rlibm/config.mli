(** Generation configuration and presets. *)

type t = {
  tin : Softfp.fmt;  (** largest input representation to support *)
  extra_bits : int;
      (** extra precision of the round-to-odd target (paper: 2) *)
  pieces : int;  (** sub-domains of the reduced domain *)
  table_bits : int;  (** logarithm reduction table size: 2^table_bits *)
  min_degree : int;  (** degree search lower bound *)
  max_degree : int;  (** degree search upper bound (paper: 6) *)
  max_rounds : int;  (** bound N of Algorithm 2's loop *)
  max_specials : int;  (** special-case input budget per piece *)
}

(** The round-to-odd target: same exponent range as [tin] with
    [extra_bits] more precision (the RLibm-All construction). *)
val tout : t -> Softfp.fmt

(** The reduced-width input family used by the exhaustive experiments:
    13 bits total with 5 exponent bits (7936 finite values).  Results are
    correct for all representations of 7..13 bits under all five standard
    rounding modes. *)
val mini_tin : Softfp.fmt

(** A test hook. *)
val default_mini : t

(** Per-function presets over {!mini_tin}. *)
val mini_for : Oracle.func -> t

(** binary32 presets (sampled generation; see DESIGN.md on scale). *)
val float32_for : Oracle.func -> t
