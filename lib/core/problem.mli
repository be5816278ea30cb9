(** Abstract autotuning problem: what the active learner sees.

    A problem is a space of integer configurations, a feature embedding,
    and a stochastic measurement procedure with an associated cost model.
    {!Altune_spapt} adapts its benchmarks to this interface; anything else
    (a real compiler wrapper, another simulator) can too. *)

type config = int array

type t = {
  name : string;
  dim : int;  (** Feature dimensionality. *)
  space_size : float;
  random_config : Altune_prng.Rng.t -> config;
  features : config -> float array;
      (** Deterministic scaled-and-centred embedding. *)
  measure : rng:Altune_prng.Rng.t -> run_index:int -> config -> float;
      (** One noisy runtime measurement, seconds. *)
  compile_seconds : config -> float;
      (** Cost of building the configuration's binary (charged once per
          distinct configuration). *)
  prepare : config list -> unit;
      (** Unused: nothing calls it, and every problem built in this
          repository sets it to [ignore].  It is kept only so that code
          constructing a [Problem.t] outside the libraries, such as the
          repository benchmark's timing wrapper, still compiles. *)
}

val key : config -> string
(** Hashable identity of a configuration. *)
