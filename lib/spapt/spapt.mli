(** The 11 SPAPT autotuning search problems used in the paper's
    evaluation.

    Each benchmark bundles a kernel, its tunable transformation knobs
    (cache-tile sizes, register-tile / unroll-and-jam factors, unroll
    factors — the parameter kinds of SPAPT), a machine model, and a
    calibrated measurement-noise model.  A configuration is a point in the
    integer knob space; measuring it once yields one noisy runtime sample,
    exactly the operation whose count the paper minimizes. *)

type knob =
  | Tile of { loop : string; sizes : int array }
      (** Cache-tile size chosen from [sizes] (1 = off).  Loops sharing a
          [group] are tiled together into one rectangular tile nest. *)
  | Jam of { loop : string; max_factor : int }
      (** Register tiling by unroll-and-jam, factor in [1 .. max_factor]. *)
  | Unroll of { loop : string; max_factor : int }
      (** Plain unrolling, factor in [1 .. max_factor]. *)

val knob_cardinality : knob -> int
val knob_name : knob -> string

type t
(** A benchmark: immutable description plus a memo table of evaluated
    configurations. *)

val name : t -> string
val kernel : t -> Altune_kernellang.Ast.kernel
val knobs : t -> knob list
val dim : t -> int
(** Number of knobs = feature dimensionality. *)

val space_size : t -> float
(** Product of knob cardinalities. *)

val create :
  ?machine:Altune_machine.Machine.config -> ?cache_capacity:int -> string -> t
(** [create name] builds the named benchmark with its calibrated noise
    model.  Raises [Not_found] for unknown names.  [cache_capacity]
    (default 8192) bounds the private evaluation cache; at capacity,
    entries are evicted second-chance ("clock") oldest-unreferenced
    first.  Eviction only ever costs recomputation — every cached value
    is a deterministic function of its configuration.  The cache exports
    [spapt.cache.hits]/[.misses]/[.evictions] counters and the
    [spapt.cache.entries] gauge to {!Altune_obs.Metrics}. *)

val all : unit -> t list
(** All 11 benchmarks, Table 1 order. *)

val random_config : t -> Altune_prng.Rng.t -> int array
(** Uniform configuration; entry [i] ranges over knob [i]'s values. *)

val config_valid : t -> int array -> bool

val recipe : t -> int array -> Altune_kernellang.Verify.step list
(** The configuration's transformation steps in application order (tile
    nests, then unroll-and-jams innermost-first, then unrolls), with
    identity steps dropped.  Raises [Invalid_argument] if the
    configuration is out of range. *)

val transformed : t -> int array -> Altune_kernellang.Ast.kernel
(** The kernel with the configuration's transformations applied —
    [recipe] run through {!Altune_kernellang.Verify.apply_steps}.  Raises
    [Invalid_argument] if the configuration is out of range; transformation
    recipes are total over valid configurations. *)

val small_params : t -> (string * int) list
(** Problem-size overrides small enough for interpreter-based soundness
    checks of this benchmark. *)

val verify_config : t -> int array -> Altune_kernellang.Verify.verdict
(** Independent step-by-step soundness audit of the configuration's
    recipe ({!Altune_kernellang.Verify.run} at [small_params]). *)

val features : t -> int array -> float array
(** Scaled-and-centred feature vector (the paper's Section 4.5
    normalization), deterministic per benchmark. *)

type share =
  key:string -> (unit -> float * float) -> float * float
(** A sharing function for evaluation results: given a configuration's
    string key (same format as {!Altune_core.Problem.key}) and the
    thunk computing [(true runtime, compile seconds)], return the
    result — typically from a process-wide compute-once memo keyed by
    (kernel, config). *)

val set_share : t -> share option -> unit
(** [set_share t (Some via)] routes every evaluation of [t] (the
    transform + dependence re-analysis + machine-model pricing behind
    {!true_runtime}, {!compile_seconds} and {!measure}) through [via]
    instead of [t]'s private per-instance cache, which is then bypassed
    entirely.  This is the cross-session sharing hook of the tuning
    server: many sessions, each with its own [t], evaluate any given
    (kernel, config) pair exactly once process-wide.  [via] must be
    deterministic per key (the default computation is) and domain-safe
    if hooked instances are driven in parallel.  [set_share t None]
    restores the private cache. *)

val true_runtime : t -> int array -> float
(** Deterministic machine-model runtime, memoized per configuration. *)

val compile_seconds : t -> int array -> float
(** Simulated compile cost of the configuration's binary. *)

val noise_sigma : t -> int array -> float
(** The configuration's relative noise level — the heteroskedastic field
    (most configurations are quiet; a hash-derived lognormal tail makes
    some extremely noisy, as in the paper's Table 2). *)

val measure : t -> rng:Altune_prng.Rng.t -> run_index:int -> int array -> float
(** One noisy runtime measurement, in seconds. *)

val mean_runtime : t -> rng:Altune_prng.Rng.t -> n:int -> int array -> float
(** Mean of [n] fresh measurements (the fixed sampling plan's label). *)
