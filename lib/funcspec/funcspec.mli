(** The function-specification registry: every piece of per-function
    knowledge the generator needs, as data in one table.

    The paper's generator is function-agnostic — any elementary function
    with a range reduction and an oracle fits Algorithm 2 — but the
    reproduction used to hardcode its six functions as a closed variant
    with dispatch scattered across seven modules ([Oracle], [Config],
    [Reduction], [Genlibm], the executables and the bench harness).
    This module collapses all of it into one registry: a {!spec} record
    per function carrying the name and aliases, the domain predicate,
    the exact-value rule, the rigorous enclosure builder, the oracle's
    native first-tier kernel, the range-reduction family (with its overflow/underflow threshold
    scale), and the generation-config presets.  Everybody else asks
    {!get}; adding a function family is a change to this file alone
    (new constructor, new registry entry) instead of a seven-file hunt.

    The variant {!func} stays a closed enumeration on purpose: it is a
    value-carrying key (hash-table keys, [Marshal]ed artifacts, cache
    keys via {!name}), and constant constructors keep the on-disk
    representation of every persisted artifact stable. *)

type func = Exp | Exp2 | Exp10 | Log | Log2 | Log10

(** Range-reduction family, with the per-family constants every
    downstream layer needs:

    - [Exp_family]: reduce through [t = x * log2_base]; [log2_base] is
      also the overflow/underflow threshold scale ([t] against the
      target's exponent range decides the analytic shortcut).
    - [Log_family]: table-based reduction [x = 2^k * m]; output
      compensation adds [k * k_scale + T[j]], where [k_scale = log_b 2]
      and [k_exact] says the product is exact (log2, where
      [k_scale = 1]). *)
type family =
  | Exp_family of { log2_base : float }
  | Log_family of { k_scale : float; k_exact : bool }

(** Generation-config preset: the per-function knobs of
    {!Rlibm.Config.mini_for} / [float32_for] (every other field comes
    from the scale-wide defaults). *)
type preset = { pieces : int; min_degree : int }

type spec = {
  func : func;
  name : string;  (** canonical name; also the cache-key component *)
  aliases : string list;  (** extra {!of_name} spellings, e.g. ["ln"] *)
  family : family;
  domain_ok : Rat.t -> bool;  (** open domain of the function *)
  exact_value : Rat.t -> Rat.t option;
      (** [Some y] when [f x] is exactly the rational [y] (where a Ziv
          loop could not terminate) *)
  enclosure : Rat.t -> prec:int -> Ival.t;
      (** rigorous interval around [f x], width ~[2^-prec]; only called
          on in-domain inputs *)
  fast : int -> int -> (Fixed.t * int) option;
      (** the oracle's native first tier: [fast m e = Some (iv, n)]
          encloses [f (m·2^e)] in [iv·2^n], for an in-domain input whose
          value is not exact; [None] outside the kernel's proven input
          range *)
  mini : preset;  (** reduced-width exhaustive-universe preset *)
  float32 : preset;  (** binary32 sampled-generation preset *)
}

(** {1 The registry} *)

val all : func list
(** Every registered function, in registration order. *)

val get : func -> spec
(** The one dispatch site: constant-time lookup of a function's spec. *)

val name : func -> string
val of_name : string -> func option

val resolve : string -> (func, Diag.Error.t) result
(** [of_name] with a typed failure: an unknown name yields
    [Bad_spec { name; suggestion }], where [suggestion] is the closest
    registered name or alias when it is within a plausible typo distance
    (Damerau–Levenshtein ≤ 2). *)

(** {1 Registry-backed helpers} *)

val is_exp_family : func -> bool

val log2_scale : func -> float option
(** The exponential family's threshold scale ([Some log2_base]);
    [None] for the logarithms. *)

(** {1 Shared constants}

    Cached enclosures of the constants the enclosure kernels reduce
    through; exposed for the oracle's public API and tests. *)

val ln2 : prec:int -> Ival.t
val ln10 : prec:int -> Ival.t

(** The first-tier kernels' constants: literal one-ulp [\[floor, ceiling\]]
    pairs at {!Fixed.frac_bits}, exposed for the tests that check them. *)

val fixed_ln2 : Fixed.t
val fixed_ln10 : Fixed.t
val fixed_log2e : Fixed.t
val fixed_log10e : Fixed.t
