module Ast = Altune_kernellang.Ast
module Transform = Altune_kernellang.Transform
module Verify = Altune_kernellang.Verify
module Analysis = Altune_kernellang.Analysis
module Machine = Altune_machine.Machine
module Noise = Altune_noise.Noise
module Rng = Altune_prng.Rng
module Distributions = Altune_stats.Distributions
module Pool = Altune_exec.Pool
module Metrics = Altune_obs.Metrics

type knob =
  | Tile of { loop : string; sizes : int array }
  | Jam of { loop : string; max_factor : int }
  | Unroll of { loop : string; max_factor : int }

let knob_cardinality = function
  | Tile { sizes; _ } -> Array.length sizes
  | Jam { max_factor; _ } | Unroll { max_factor; _ } -> max_factor

let knob_name = function
  | Tile { loop; _ } -> "tile:" ^ loop
  | Jam { loop; _ } -> "jam:" ^ loop
  | Unroll { loop; _ } -> "unroll:" ^ loop

type spec = {
  knobs : knob list;
  tile_nests : string list list;
      (* Loops tiled together as one rectangular nest, outermost first. *)
  base_sigma : float;  (* mean relative noise before the field *)
  field_sd : float;  (* lognormal spread of the per-config noise field *)
  extra_channels : Noise.channel list;
}

let tile_sizes = [| 1; 2; 4; 8; 16; 32; 64 |]
let small_tiles = [| 1; 2; 4; 8; 16; 32 |]

(* Per-benchmark tunable spaces.  Knob order defines both the
   configuration layout and the feature order.  Jam knobs are offered only
   on loops where unroll-and-jam is legal (perfect nest, writes indexed by
   the jammed loop); the test suite checks totality over random configs. *)
let specs =
  [
    ( "adi",
      {
        knobs =
          [
            Tile { loop = "i1"; sizes = small_tiles };
            Tile { loop = "j1"; sizes = small_tiles };
            Tile { loop = "i2"; sizes = small_tiles };
            Tile { loop = "j2"; sizes = small_tiles };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "i2"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 30 };
            Unroll { loop = "j2"; max_factor = 30 };
          ];
        tile_nests = [ [ "i1"; "j1" ]; [ "i2"; "j2" ] ];
        base_sigma = 4.0e-3;
        field_sd = 1.0;
        (* adi is the paper's one counter-example: its noise is dominated
           by layout effects that persist within a run but differ across
           runs, so a single observation carries a bias only averaging
           removes.  A strong layout channel reproduces that: the adaptive
           plan's sparse samples hit a floor the 35-observation baseline
           averages away. *)
        extra_channels =
          [ Noise.Layout { buckets = 6; amplitude = 0.04 } ];
      } );
    ( "atax",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
            Unroll { loop = "i1"; max_factor = 8 };
            Unroll { loop = "i2"; max_factor = 8 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ] ];
        base_sigma = 4.0e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "bicgkernel",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
            Unroll { loop = "i2"; max_factor = 8 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ] ];
        base_sigma = 2.7e-3;
        field_sd = 1.1;
        extra_channels = [];
      } );
    ( "correlation",
      {
        knobs =
          [
            Tile { loop = "j3"; sizes = small_tiles };
            Tile { loop = "k3"; sizes = small_tiles };
            Unroll { loop = "j1"; max_factor = 16 };
            Unroll { loop = "j2"; max_factor = 16 };
            Unroll { loop = "k3"; max_factor = 32 };
            Unroll { loop = "j3"; max_factor = 8 };
          ];
        tile_nests = [ [ "j3" ]; [ "k3" ] ];
        base_sigma = 5.0e-2;
        field_sd = 0.9;
        extra_channels =
          [ Noise.Burst { probability = 0.05; mu = -1.5; sigma = 1.0 } ];
      } );
    ( "dgemv3",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Tile { loop = "j3"; sizes = tile_sizes };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
            Unroll { loop = "j3"; max_factor = 32 };
            Unroll { loop = "i1"; max_factor = 8 };
            Unroll { loop = "i2"; max_factor = 8 };
            Unroll { loop = "i3"; max_factor = 8 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ]; [ "j3" ] ];
        base_sigma = 4.0e-3;
        field_sd = 1.1;
        extra_channels = [];
      } );
    ( "gemver",
      {
        knobs =
          [
            Tile { loop = "i1"; sizes = small_tiles };
            Tile { loop = "j1"; sizes = small_tiles };
            Tile { loop = "j2"; sizes = tile_sizes };
            Tile { loop = "j4"; sizes = tile_sizes };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 16 };
            Unroll { loop = "j2"; max_factor = 16 };
            Unroll { loop = "i3"; max_factor = 8 };
            Unroll { loop = "j4"; max_factor = 16 };
          ];
        tile_nests = [ [ "i1"; "j1" ]; [ "j2" ]; [ "j4" ] ];
        base_sigma = 8.5e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "hessian",
      {
        knobs =
          [
            Tile { loop = "i"; sizes = small_tiles };
            Tile { loop = "j"; sizes = small_tiles };
            Jam { loop = "i"; max_factor = 8 };
            Unroll { loop = "j"; max_factor = 30 };
          ];
        tile_nests = [ [ "i"; "j" ] ];
        base_sigma = 2.4e-3;
        field_sd = 1.2;
        extra_channels = [];
      } );
    ( "jacobi",
      {
        knobs =
          [
            Tile { loop = "i1"; sizes = small_tiles };
            Tile { loop = "j1"; sizes = small_tiles };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 30 };
            Jam { loop = "i2"; max_factor = 8 };
            Unroll { loop = "j2"; max_factor = 16 };
          ];
        tile_nests = [ [ "i1"; "j1" ] ];
        base_sigma = 2.3e-3;
        field_sd = 1.3;
        extra_channels = [];
      } );
    ( "lu",
      {
        knobs =
          [
            Tile { loop = "j"; sizes = tile_sizes };
            Unroll { loop = "j"; max_factor = 32 };
            Unroll { loop = "i"; max_factor = 8 };
            Unroll { loop = "k"; max_factor = 4 };
          ];
        tile_nests = [ [ "j" ] ];
        base_sigma = 1.2e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "mm",
      {
        knobs =
          [
            Tile { loop = "i"; sizes = tile_sizes };
            Tile { loop = "j"; sizes = tile_sizes };
            Tile { loop = "k"; sizes = tile_sizes };
            Jam { loop = "i"; max_factor = 8 };
            Unroll { loop = "j"; max_factor = 16 };
            Unroll { loop = "k"; max_factor = 32 };
          ];
        tile_nests = [ [ "i"; "j"; "k" ] ];
        base_sigma = 1.3e-3;
        field_sd = 1.0;
        extra_channels = [];
      } );
    ( "mvt",
      {
        knobs =
          [
            Tile { loop = "j1"; sizes = tile_sizes };
            Tile { loop = "j2"; sizes = tile_sizes };
            Jam { loop = "i1"; max_factor = 8 };
            Unroll { loop = "j1"; max_factor = 32 };
            Unroll { loop = "j2"; max_factor = 32 };
          ];
        tile_nests = [ [ "j1" ]; [ "j2" ] ];
        base_sigma = 1.4e-3;
        field_sd = 1.1;
        extra_channels = [];
      } );
  ]

type share =
  key:string -> (unit -> float * float) -> float * float

(* Bounded per-instance evaluation cache: a hashtable for lookup plus a
   second-chance ("clock") ring for eviction.  A hit sets the entry's
   reference bit; insertion at capacity sweeps the ring, giving each
   referenced entry one reprieve before it goes.  Every cached value is a
   deterministic function of the configuration, so eviction can only cost
   recomputation, never change a result — long serve sessions stop
   growing without bound (the old table never evicted). *)
type cache_entry = { value : float * float; mutable referenced : bool }

type cache = {
  table : (int array, cache_entry) Hashtbl.t;
  ring : int array Queue.t;  (* exactly the live keys, insertion order *)
  capacity : int;
}

let cache_hits = Metrics.counter "spapt.cache.hits"
let cache_misses = Metrics.counter "spapt.cache.misses"
let cache_evictions = Metrics.counter "spapt.cache.evictions"
let cache_entries = Metrics.gauge "spapt.cache.entries"

let cache_create capacity =
  { table = Hashtbl.create 1024; ring = Queue.create (); capacity }

let cache_find c key =
  match Hashtbl.find_opt c.table key with
  | Some e ->
      e.referenced <- true;
      Metrics.incr cache_hits;
      Some e.value
  | None ->
      Metrics.incr cache_misses;
      None

let cache_add c key value =
  if not (Hashtbl.mem c.table key) then begin
    while Hashtbl.length c.table >= c.capacity do
      (* The ring holds every live key, so the pop cannot raise while the
         table is non-empty; a full sweep clears every reference bit, so
         the loop terminates. *)
      let k = Queue.pop c.ring in
      match Hashtbl.find_opt c.table k with
      | Some e when e.referenced ->
          e.referenced <- false;
          Queue.push k c.ring
      | Some _ ->
          Hashtbl.remove c.table k;
          Metrics.incr cache_evictions
      | None -> ()
    done;
    let key = Array.copy key in
    Hashtbl.replace c.table key { value; referenced = false };
    Queue.push key c.ring;
    Metrics.set_gauge cache_entries
      (float_of_int (Hashtbl.length c.table))
  end

type t = {
  bench_name : string;
  kernel : Ast.kernel;
  spec : spec;
  machine : Machine.config;
  noise : Noise.t;
  cache : cache;  (* config -> (true runtime, compile seconds) *)
  salt : int;  (* per-benchmark seed of the noise field *)
  fork : Fork.t;
      (* Transformation-prefix trie: resolves recipes by reusing the
         deepest cached prefix.  Resolved kernels are byte-identical to
         from-scratch application, so it stays on by default; [set_fork]
         exists for differential baselines and benchmarks. *)
  mutable fork_enabled : bool;
  mutable pool : Pool.t option;
      (* When set, [prepare] fans candidate evaluations out on this pool
         (slot-indexed, order-preserving) instead of computing them one
         by one on first use. *)
  mutable share : share option;
      (* When set, evaluation results are obtained through this function
         instead of the private cache — the hook a multi-tenant server
         uses to route (kernel, config) evaluations through one shared
         compute-once memo.  The private cache is bypassed entirely so a
         hooked instance holds no mutable evaluation state of its own
         (several hooked instances may then be driven from different
         domains at once). *)
}

let name t = t.bench_name
let kernel t = t.kernel
let knobs t = t.spec.knobs
let dim t = List.length t.spec.knobs

let space_size t =
  List.fold_left
    (fun acc k -> acc *. float_of_int (knob_cardinality k))
    1.0 t.spec.knobs

let create ?(machine = Machine.default) ?(cache_capacity = 8192) bench_name =
  let spec = List.assoc bench_name specs in
  let kernel = Kernels.kernel bench_name in
  let noise =
    Noise.create
      (Noise.Gaussian_rel 1.0 (* scaled per configuration *)
      :: Noise.Burst { probability = 0.01; mu = -3.0; sigma = 1.0 }
      :: Noise.Drift { period = 500.0; amplitude = 0.002 }
      :: spec.extra_channels)
  in
  {
    bench_name;
    kernel;
    spec;
    machine;
    noise;
    cache = cache_create cache_capacity;
    (* Structured derivation, not Hashtbl.hash: the polymorphic hash is
       not stable across OCaml versions, and this salt seeds the noise
       field of every simulated measurement. *)
    salt =
      Rng.derive ~seed:0x5eed [ Rng.S "spapt.noise-field"; Rng.S bench_name ];
    fork = Fork.create kernel;
    fork_enabled = true;
    pool = None;
    share = None;
  }

let set_share t share = t.share <- share
let set_fork t on = t.fork_enabled <- on
let fork_enabled t = t.fork_enabled
let fork_stats t = Fork.stats t.fork
let set_pool t pool = t.pool <- pool

let all () = List.map (fun (n, _) -> create n) specs

let config_valid t config =
  Array.length config = dim t
  && List.for_all2
       (fun k v -> v >= 0 && v < knob_cardinality k)
       t.spec.knobs
       (Array.to_list config)

let check_config t config =
  if not (config_valid t config) then
    invalid_arg
      (Printf.sprintf "Spapt: invalid configuration for %s" t.bench_name)

let random_config t rng =
  let ks = Array.of_list t.spec.knobs in
  Array.map (fun k -> Rng.int rng (knob_cardinality k)) ks

(* Knob value (tile size or factor) from the raw configuration entry. *)
let knob_value k raw =
  match k with
  | Tile { sizes; _ } -> sizes.(raw)
  | Jam _ | Unroll _ -> raw + 1

let recipe t config =
  check_config t config;
  let values =
    List.mapi (fun i k -> (k, knob_value k config.(i))) t.spec.knobs
  in
  let tile_size loop =
    match
      List.find_opt
        (fun (k, _) ->
          match k with Tile { loop = l; _ } -> l = loop | _ -> false)
        values
    with
    | Some (_, v) -> v
    | None -> 1
  in
  (* Identity steps (factor 1, all-1 tile nests) are dropped rather than
     applied as no-ops, so an audit only sees steps that change the
     kernel. *)
  let tiles =
    List.filter_map
      (fun nest ->
        let spec = List.map (fun l -> (l, tile_size l)) nest in
        if List.for_all (fun (_, s) -> s = 1) spec then None
        else Some (Verify.Tile_nest spec))
      t.spec.tile_nests
  in
  (* Jams innermost-first (knob lists are outermost-first): jamming an
     outer loop absorbs the already-jammed inner loop's body whole. *)
  let jams =
    List.filter_map
      (fun (k, v) ->
        match k with
        | Jam { loop; _ } when v > 1 ->
            Some (Verify.Unroll_and_jam { index = loop; factor = v })
        | Tile _ | Jam _ | Unroll _ -> None)
      (List.rev values)
  in
  let unrolls =
    List.filter_map
      (fun (k, v) ->
        match k with
        | Unroll { loop; _ } when v > 1 ->
            Some (Verify.Unroll { index = loop; factor = v })
        | Tile _ | Jam _ | Unroll _ -> None)
      values
  in
  tiles @ jams @ unrolls

let transformed t config =
  let steps = recipe t config in
  let result =
    if t.fork_enabled then Fork.resolve t.fork steps
    else Verify.apply_steps steps t.kernel
  in
  match result with
  | Ok k -> k
  | Error e ->
      invalid_arg
        (Printf.sprintf "Spapt %s: transformation recipe failed: %s"
           t.bench_name
           (Transform.error_to_string e))

(* Problem sizes small enough for interpreter-based soundness checks;
   the test suite uses the same table. *)
let small_params t =
  match t.bench_name with
  | "adi" -> [ ("N", 7); ("T", 2) ]
  | "atax" | "bicgkernel" | "dgemv3" | "gemver" | "mvt" ->
      [ ("N", 9); ("T", 2) ]
  | "correlation" -> [ ("M", 8); ("N", 7); ("T", 1) ]
  | "hessian" | "jacobi" -> [ ("N", 8); ("T", 2) ]
  | "lu" | "mm" -> [ ("N", 7); ("T", 1) ]
  | _ -> []

let verify_config t config =
  let subject =
    Printf.sprintf "%s [%s]" t.bench_name
      (String.concat "," (List.map string_of_int (Array.to_list config)))
  in
  if t.fork_enabled then
    Fork.audit
      ~param_overrides:(small_params t)
      ~subject t.fork (recipe t config)
  else
    Verify.run
      ~param_overrides:(small_params t)
      ~subject t.kernel (recipe t config)

let features t config =
  check_config t config;
  let ks = Array.of_list t.spec.knobs in
  Array.mapi
    (fun i raw ->
      (* Scale and centre against the uniform distribution over the knob's
         range: mean (c-1)/2, standard deviation sqrt((c^2 - 1) / 12). *)
      let c = float_of_int (knob_cardinality ks.(i)) in
      let mean = (c -. 1.0) /. 2.0 in
      let sd = sqrt (((c *. c) -. 1.0) /. 12.0) in
      if sd = 0.0 then 0.0 else (float_of_int raw -. mean) /. sd)
    config

(* The expensive step behind every measurement: transform the kernel,
   re-analyze it, and price it on the machine model.  Pure in [t]'s
   immutable fields, so concurrent calls (e.g. two shared-memo computes
   for different configs on different instances) are safe. *)
let compute_evaluation t config =
  let k = transformed t config in
  let e = Machine.evaluate t.machine k in
  (e.Machine.runtime, e.Machine.compile)

let config_key config =
  String.concat "," (List.map string_of_int (Array.to_list config))

let evaluate t config =
  match t.share with
  | Some via ->
      via ~key:(config_key config) (fun () -> compute_evaluation t config)
  | None -> (
      match cache_find t.cache config with
      | Some v -> v
      | None ->
          let v = compute_evaluation t config in
          cache_add t.cache config v;
          v)

let prepare t configs =
  match t.share with
  | Some _ ->
      (* A hooked instance holds no private evaluation state; batching
         would race the server's compute-once memo for no benefit. *)
      ()
  | None -> (
      let seen = Hashtbl.create 16 in
      let missing =
        List.filter
          (fun c ->
            if
              (not (config_valid t c))
              || Hashtbl.mem t.cache.table c
              || Hashtbl.mem seen c
            then false
            else begin
              Hashtbl.add seen c ();
              true
            end)
          configs
      in
      match missing with
      | [] | [ _ ] -> () (* nothing worth batching *)
      | batch ->
          (* compute_evaluation is deterministic and mutates only the
             mutex-guarded fork trie, so fanning it out and writing the
             slot-indexed results back sequentially yields byte-identical
             cache contents at any job count. *)
          let results =
            match t.pool with
            | Some pool when Pool.jobs pool > 1 ->
                (* One task per worker, not per config: a single
                   evaluation is ~ms-scale, so per-config tasks would
                   drown in scheduling overhead.  Contiguous chunks keep
                   the concatenated results in input order. *)
                let jobs = Pool.jobs pool in
                let n = List.length batch in
                let arr = Array.of_list batch in
                let chunk i =
                  let lo = i * n / jobs and hi = (i + 1) * n / jobs in
                  Array.to_list (Array.sub arr lo (hi - lo))
                in
                let chunks =
                  List.filter (fun c -> c <> []) (List.init jobs chunk)
                in
                List.concat
                  (Pool.map
                     ~label:(fun i -> Printf.sprintf "spapt.eval chunk %d" i)
                     pool
                     (fun cs -> List.map (fun c -> compute_evaluation t c) cs)
                     chunks)
            | _ -> List.map (fun c -> compute_evaluation t c) batch
          in
          List.iter2 (fun c v -> cache_add t.cache c v) batch results)

let true_runtime t config = fst (evaluate t config)
let compile_seconds t config = snd (evaluate t config)

(* Heteroskedastic noise field: a deterministic lognormal multiplier per
   configuration.  Hash -> uniform -> normal quantile keeps it smooth-free
   but reproducible; the lognormal tail yields the rare extremely-noisy
   configurations of Table 2. *)
let noise_sigma t config =
  check_config t config;
  (* Rng.derive, not Hashtbl.hash: the polymorphic hash truncates its
     input and is free to change across OCaml releases, which would
     silently reshuffle every configuration's noise level. *)
  let h =
    Rng.derive ~seed:t.salt
      (List.map (fun v -> Rng.I v) (Array.to_list config))
    land 0x3FFFFFFF
  in
  let u = (float_of_int h +. 0.5) /. 1073741824.0 in
  let z = Distributions.normal_quantile u in
  t.spec.base_sigma *. exp (t.spec.field_sd *. (z -. (0.5 *. t.spec.field_sd)))

let measure t ~rng ~run_index config =
  let sigma = noise_sigma t config in
  let model = Noise.scale_gaussian t.noise sigma in
  Noise.sample model ~rng ~run_index ~true_value:(true_runtime t config)

let mean_runtime t ~rng ~n config =
  if n <= 0 then invalid_arg "Spapt.mean_runtime: n must be positive";
  let acc = ref 0.0 in
  for run_index = 1 to n do
    acc := !acc +. measure t ~rng ~run_index config
  done;
  !acc /. float_of_int n
