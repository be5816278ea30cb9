(* The program behind perfbench/run.py: runs one workload of the
   repository benchmark and writes raw measurements as JSON lines on
   stdout.  run.py builds it, launches it under a time limit, checks the
   outputs against perfbench/reference.json and turns the lines into the
   benchmark's metrics.

   Usage:
     bench.exe WORKLOAD --seeds N1,N2,... --seconds S [--trace]
                        [--setup-only] [--record]

   WORKLOAD is table1-smoke, learn-paper or serve-fleet.  The program
   runs as many of the workload's units of work (one Table 1, one learner
   run, one fleet of sessions) as fill S seconds at the unit's nominal
   duration on a 2-core x86-64 host, and at least one.  The count
   depends on S alone, so every run of a workload measures the same
   amount of work.  Unit i takes its inputs from seed N(i mod k), so a
   run's medians cover several inputs.  With --trace it runs one unit on
   N1, then the same unit again under the trace sink, then a simulator
   probe, and reports per-layer numbers.  --setup-only stops after
   set-up; --record runs one reference unit on N1 (learn-paper without
   the timing wrappers).

   Output lines, in order:
     {"ev":"ready","t_ns":T,"plan":[N...]}
                                       monotonic clock at the first timed
                                       call, and the seed of every unit
                                       the run will execute
     {"ev":"begin","seed":N}           a unit starts
     {"ev":"op","ok":B,"ms":L}         an operation finished (a learner run,
                                       a learner iteration or a request)
     {"ev":"unit",...}                 a unit finished
     {"ev":"layers","metrics":{...}}   with --trace
     {"ev":"done","peak_rss_kb":K}

   The workload code only calls the libraries' public functions and times
   them from here; nothing in the program is pre-forced or warmed up. *)

module Rng = Altune_prng.Rng
module Analysis = Altune_kernellang.Analysis
module Machine = Altune_machine.Machine
module Spapt = Altune_spapt.Spapt
module Kernels = Altune_spapt.Kernels
module Learner = Altune_core.Learner
module Dataset = Altune_core.Dataset
module Problem = Altune_core.Problem
module Surrogate = Altune_core.Surrogate
module Adapter = Altune_experiments.Adapter
module Drivers = Altune_experiments.Drivers
module Runs = Altune_experiments.Runs
module Scale = Altune_experiments.Scale
module Pool = Altune_exec.Pool
module Server = Altune_serve.Server
module P = Altune_serve.Protocol
module Trace = Altune_obs.Trace
module Metrics = Altune_obs.Metrics
module Summary = Altune_obs.Summary
module Json = Altune_obs.Json

let now = Trace.now_ns
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let emit ev fields =
  print_string (Json.to_string (Json.Obj (("ev", Json.String ev) :: fields)));
  print_char '\n';
  flush stdout

let emit_op ok ms = emit "op" [ ("ok", Json.Bool ok); ("ms", Json.Float ms) ]

(* Call count and total seconds of one timed function. *)
type calls = { mutable n : int; mutable s : float }

let calls () = { n = 0; s = 0.0 }

let time c f =
  let t0 = now () in
  let v = f () in
  c.n <- c.n + 1;
  c.s <- c.s +. seconds_since t0;
  v

let mean c = if c.n = 0 then 0.0 else c.s /. float_of_int c.n

type unit_result = {
  run_s : float;
  ops : int;  (** Operations attempted. *)
  failed : int;
  latencies_ms : float list;
      (** Learner runs (table1-smoke), learner iterations (learn-paper) or
          Tick requests (serve-fleet). *)
  fingerprint : string;  (** What the output check compares. *)
  layers : (string * float) list;
      (** Per-layer numbers only this workload can observe. *)
}

type workload = {
  kernels : string list;  (** The kernels the simulator probe samples. *)
  work : int -> unit_result;  (** One unit on the inputs of a seed. *)
}

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- table1-smoke ------------------------------------------------------ *)

(* The paper's Table 1 at smoke scale over all 11 kernels.  The pool's
   progress events are the only public view into Drivers.table1: every
   "<bench>/<scale>/<plan> rep <r>" task is one learner run. *)
let table1_smoke () =
  let latencies = ref [] in
  let started = Hashtbl.create 64 in
  let on_event = function
    | Pool.Task_started { label; _ } -> Hashtbl.replace started label (now ())
    | Pool.Task_finished { label; _ } when contains label " rep " ->
        let ms = seconds_since (Hashtbl.find started label) *. 1e3 in
        latencies := ms :: !latencies;
        emit_op true ms
    | Pool.Task_finished _ -> ()
  in
  Runs.set_jobs ~on_event 1;
  let expected = List.length Kernels.names * 3 * Scale.smoke.reps in
  let work seed =
    latencies := [];
    let t0 = now () in
    let text = Drivers.table1 ~scale:Scale.smoke ~seed () in
    let run_s = seconds_since t0 in
    let finished = List.length !latencies in
    {
      run_s;
      ops = expected;
      failed = expected - finished;
      latencies_ms = List.rev !latencies;
      fingerprint = Digest.to_hex (Digest.string text);
      layers = [];
    }
  in
  { kernels = Kernels.names; work }

(* --- learn-paper ------------------------------------------------------- *)

(* The paper's surrogate sizes on one adaptive run.  The pool stays far
   larger than n_candidates: with a pool close to it, rejection sampling
   of unseen candidates dominates the run instead of the surrogate. *)
let paper_settings =
  {
    Scale.smoke.adaptive with
    Learner.model = Surrogate.dynatree ~particles:2000 ();
    n_candidates = 500;
    ref_size = 300;
    n_max = 150;
  }

type timers = {
  observe : calls;
  predict : calls;
  alc : calls;
  measure : calls;
  compile : calls;
  features : calls;
  prepare : calls;
  mutable marks : int64 list;  (** Start of each alc_scores call, newest first. *)
  mutable busy_at_first_mark : float;
}

let timers () =
  {
    observe = calls ();
    predict = calls ();
    alc = calls ();
    measure = calls ();
    compile = calls ();
    features = calls ();
    prepare = calls ();
    marks = [];
    busy_at_first_mark = 0.0;
  }

let busy t =
  List.fold_left
    (fun acc c -> acc +. c.s)
    0.0
    [ t.observe; t.predict; t.alc; t.measure; t.compile; t.features; t.prepare ]

(* Each learner iteration makes exactly one alc_scores call, so the
   spacing of those calls is the iteration latency. *)
let mark_iteration t =
  let m = now () in
  (match t.marks with
  | [] -> t.busy_at_first_mark <- busy t
  | prev :: _ -> emit_op true (Int64.to_float (Int64.sub m prev) *. 1e-6));
  t.marks <- m :: t.marks

let timed_factory t (inner : Surrogate.factory) : Surrogate.factory =
 fun ~noise_hint ~rng ~dim ->
  let s = inner ~noise_hint ~rng ~dim in
  let module W = struct
    type nonrec t = Surrogate.t

    let name = Surrogate.name s
    let observe m x y = time t.observe (fun () -> Surrogate.observe m x y)
    let predict m x = time t.predict (fun () -> Surrogate.predict m x)

    let alc_scores m ~candidates ~refs =
      mark_iteration t;
      time t.alc (fun () -> Surrogate.alc_scores m ~candidates ~refs)

    let n_observations = Surrogate.n_observations
    let tree_stats = Surrogate.tree_stats
    let set_pool = Surrogate.set_pool
  end in
  Surrogate.Pack ((module W), s)

let timed_problem t (p : Problem.t) =
  {
    p with
    Problem.features = (fun c -> time t.features (fun () -> p.features c));
    measure =
      (fun ~rng ~run_index c ->
        time t.measure (fun () -> p.measure ~rng ~run_index c));
    compile_seconds =
      (fun c -> time t.compile (fun () -> p.compile_seconds c));
    prepare = (fun cs -> time t.prepare (fun () -> p.prepare cs));
  }

let bits f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let outcome_fingerprint (o : Learner.outcome) =
  let curve =
    String.concat ";"
      (List.map
         (fun (p : Learner.eval_point) ->
           Printf.sprintf "%d,%d,%d,%s,%s" p.iteration p.examples
             p.observations (bits p.cost_seconds) (bits p.rmse))
         o.curve)
  in
  Printf.sprintf "rmse=%s cost=%s curve=%s" (bits o.final_rmse)
    (bits o.total_cost)
    (Digest.to_hex (Digest.string curve))

let learn_paper ~seeds ~wrap =
  Runs.set_jobs 1;
  let t0 = now () in
  let datasets =
    List.map
      (fun seed ->
        ( seed,
          Dataset.generate
            (Adapter.problem_of (Spapt.create "mm"))
            ~rng:
              (Rng.create
                 ~seed:(Rng.derive ~seed [ Rng.S "perfbench.dataset" ]))
            ~n_configs:4000 ~test_fraction:0.025 ~n_obs:Scale.smoke.n_obs ))
      seeds
  in
  let dataset_s = seconds_since t0 /. float_of_int (List.length seeds) in
  (* The seed examples count toward n_max but make no alc_scores call. *)
  let iterations = paper_settings.n_max - paper_settings.n_init in
  let work seed =
    let dataset = List.assoc seed datasets in
    let t = timers () in
    let problem = Adapter.problem_of (Spapt.create "mm") in
    let problem, settings =
      if wrap then
        ( timed_problem t problem,
          { paper_settings with model = timed_factory t paper_settings.model }
        )
      else (problem, paper_settings)
    in
    let rng =
      Rng.create ~seed:(Rng.derive ~seed [ Rng.S "perfbench.learner" ])
    in
    let t0 = now () in
    let outcome = Learner.run problem dataset settings ~rng in
    let t_end = now () in
    let run_s = Int64.to_float (Int64.sub t_end t0) *. 1e-9 in
    let marks = Array.of_list (List.rev t.marks) in
    let k = Array.length marks in
    let latencies =
      List.init k (fun i ->
          let next = if i + 1 < k then marks.(i + 1) else t_end in
          Int64.to_float (Int64.sub next marks.(i)) *. 1e-6)
    in
    if k > 0 then emit_op true (List.nth latencies (k - 1));
    let loop_s =
      if k = 0 then 0.0 else Int64.to_float (Int64.sub t_end marks.(0)) *. 1e-9
    in
    let surrogate_s = t.observe.s +. t.predict.s +. t.alc.s in
    {
      run_s;
      ops = iterations;
      failed = (if wrap then max 0 (iterations - k) else 0);
      latencies_ms = latencies;
      fingerprint = outcome_fingerprint outcome;
      layers =
        (if not wrap then []
         else
           [
             ("dynatree.observe_ms", mean t.observe *. 1e3);
             ("dynatree.predict_us", mean t.predict *. 1e6);
             ("dynatree.alc_ms", mean t.alc *. 1e3);
             ("dynatree.busy_frac", surrogate_s /. run_s);
             ( "learner.bookkeeping_frac",
               if loop_s > 0.0 then
                 1.0 -. ((busy t -. t.busy_at_first_mark) /. loop_s)
               else 0.0 );
             ("learner.dataset_s", dataset_s);
           ]);
    }
  in
  { kernels = [ "mm" ]; work }

(* --- serve-fleet ------------------------------------------------------- *)

(* 200 smoke sessions over 11 kernels x 3 seeds from one closed-loop
   client: all opened up front (16 live, the rest queued), then one
   Tick of one iteration at a time until the fleet has finished.  Every
   request goes through the wire codecs, as from a socket client.

   The server runs at jobs 1.  At jobs 2 on a 2-core host the run-to-run
   spread (interquartile range over median) of the median tick latency
   was 0.38 over five seeds in one period and 0.10 over ten in another:
   too unsteady for any bound the benchmark can hold.  Jobs 1 stayed
   within 0.13 on every metric. *)
let sessions = 200

let serve_fleet () =
  let jobs = 1 in
  Runs.set_jobs jobs;
  let kernels = Array.of_list Kernels.names in
  let work seed =
    let server =
      Server.create
        { Server.default_config with jobs; max_live = 16; max_queue = sessions }
    in
    let transcript = Buffer.create (1 lsl 16) in
    let ops = ref 0 and failed = ref 0 and ticks = ref [] in
    let request ?(tick = false) req =
      let line = P.request_to_line req in
      let t0 = now () in
      let reply = Server.handle_line server line in
      let ms = seconds_since t0 *. 1e3 in
      if tick then ticks := ms :: !ticks;
      Buffer.add_string transcript reply;
      Buffer.add_char transcript '\n';
      incr ops;
      let result =
        match P.response_of_line reply with
        | Ok { P.r_result = Ok r; _ } -> Some r
        | _ -> None
      in
      if result = None then incr failed;
      emit_op (result <> None) ms;
      result
    in
    let t0 = now () in
    for i = 0 to sessions - 1 do
      ignore
        (request
           (P.Open
              {
                P.o_session = Printf.sprintf "s%04d" i;
                o_bench = kernels.(i mod Array.length kernels);
                o_scale = "smoke";
                o_seed = seed + (i / Array.length kernels mod 3);
                o_fault = None;
                o_budget = None;
                o_n_max = Some 16;
                o_checkpoint = None;
              }))
    done;
    let rec drive n =
      match request P.Stats with
      | Some (P.R_stats s) when s.P.s_done >= sessions -> Some s.P.s_memo
      | Some (P.R_stats _) when n < 4 * sessions ->
          ignore (request ~tick:true (P.Tick { iterations = 1 }));
          drive (n + 1)
      | _ -> None
    in
    let memo = drive 0 in
    ignore (request P.Shutdown);
    let run_s = seconds_since t0 in
    let frac part whole =
      if whole = 0 then 0.0 else float_of_int part /. float_of_int whole
    in
    {
      run_s;
      ops = !ops;
      failed = (!failed + if memo = None then 1 else 0);
      latencies_ms = List.rev !ticks;
      fingerprint =
        Digest.to_hex (Digest.string (Buffer.contents transcript));
      layers =
        (match memo with
        | None -> []
        | Some m ->
            [
              ("memo.hit_frac", frac m.P.m_hits m.P.m_lookups);
              ("memo.cross_hit_frac", frac m.P.m_cross_hits m.P.m_lookups);
              ("memo.entries", float_of_int m.P.m_entries);
            ]);
    }
  in
  { kernels = Kernels.names; work }

let emit_unit ?(traced = false) ~seed r =
  emit "unit"
    [
      ("seed", Json.Int seed);
      ("traced", Json.Bool traced);
      ("run_s", Json.Float r.run_s);
      ("ops", Json.Int r.ops);
      ("failed", Json.Int r.failed);
      ("fingerprint", Json.String r.fingerprint);
      ("latencies_ms", Json.List (List.map (fun x -> Json.Float x) r.latencies_ms));
    ]

(* --- Traced run -------------------------------------------------------- *)

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let num snap path =
  match member_path path snap with
  | Some v -> Option.value (Json.to_float_opt v) ~default:0.0
  | None -> 0.0

(* Upper edge of the histogram bucket holding the q-quantile (the last
   finite edge when it falls in the overflow bucket). *)
let bucket_quantile snap name q =
  match member_path [ name ] snap with
  | None -> 0.0
  | Some h ->
      let count = num h [ "count" ] in
      let buckets =
        match Json.member "buckets" h with Some (Json.List l) -> l | _ -> []
      in
      let rec go cum edge = function
        | [] -> edge
        | b :: rest ->
            let cum = cum +. num b [ "n" ] in
            let edge =
              match Json.member "le" b with
              | Some (Json.Float e) -> e
              | _ -> edge
            in
            if cum >= q *. count then edge else go cum edge rest
      in
      if count = 0.0 then 0.0 else go 0.0 0.0 buckets

(* Mean duration of the spans with each of [names]. *)
let span_means lines names =
  let acc = List.map (fun n -> (n, calls ())) names in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok j -> (
          match
            Option.bind (Json.member "name" j) Json.to_string_opt
          with
          | Some n when List.mem_assoc n acc ->
              let c = List.assoc n acc in
              c.n <- c.n + 1;
              c.s <- c.s +. num j [ "dur" ]
          | _ -> ())
      | Error _ -> ())
    lines;
  List.map (fun (n, c) -> (n, mean c)) acc

(* The public simulator layers on a seeded config sample of the
   workload's kernels: transform, analyze, price, compile-time model, and
   one noisy measurement of an already evaluated configuration. *)
let probe ~seed kernels =
  let transform = calls () and analyze = calls () and price = calls () in
  let compile = calls () and measure = calls () in
  let per_kernel = max 1 (88 / List.length kernels) in
  List.iter
    (fun name ->
      let b = Spapt.create name in
      let rng =
        Rng.create ~seed:(Rng.derive ~seed [ Rng.S "perfbench.probe"; S name ])
      in
      for _ = 1 to per_kernel do
        let c = Spapt.random_config b rng in
        let k = time transform (fun () -> Spapt.transformed b c) in
        let a = time analyze (fun () -> Analysis.analyze k) in
        ignore (time price (fun () -> Machine.runtime_seconds Machine.default a));
        ignore (time compile (fun () -> Machine.compile_seconds Machine.default k));
        ignore (Spapt.measure b ~rng ~run_index:1 c);
        let reps = 50 in
        let t0 = now () in
        for i = 2 to reps + 1 do
          ignore (Spapt.measure b ~rng ~run_index:i c)
        done;
        measure.n <- measure.n + 1;
        measure.s <- measure.s +. (seconds_since t0 /. float_of_int reps)
      done)
    kernels;
  let per_eval_s =
    mean transform +. mean analyze +. mean price +. mean compile
  in
  ( per_eval_s,
    [
      ("kernellang.transform_us", mean transform *. 1e6);
      ("kernellang.analyze_us", mean analyze *. 1e6);
      ("machine.price_us", mean price *. 1e6);
      ("machine.compile_us", mean compile *. 1e6);
      ("noise.measure_us", mean measure *. 1e6);
    ] )

let traced_layers ~seed (w : workload) ~untraced_run_s =
  Runs.clear_cache ();
  Metrics.reset ();
  emit "begin" [ ("seed", Json.Int seed) ];
  let r, lines = Trace.with_memory (fun () -> w.work seed) in
  let snap = Metrics.snapshot () in
  emit_unit ~traced:true ~seed r;
  let summary =
    match Summary.of_lines lines with
    | Ok s -> s
    | Error e -> failwith ("trace summary: " ^ e)
  in
  let phase name =
    match
      List.find_opt (fun (row : Summary.phase_row) -> row.phase = name)
        summary.rows
    with
    | Some row -> row.self_s
    | None -> 0.0
  in
  let busy_frac part =
    if summary.busy_s > 0.0 then part /. summary.busy_s else 0.0
  in
  let spans = span_means lines [ "learner.observe"; "learner.select" ] in
  let per_eval_s, sim = probe ~seed w.kernels in
  let hits = num snap [ "spapt.cache.hits" ] in
  let misses = num snap [ "spapt.cache.misses" ] in
  let evals = misses +. num snap [ "serve.memo.misses" ] in
  let simulated = phase "profiling" +. phase "dataset" in
  let generic =
    sim
    @ [
        ("spapt.evals", evals);
        ("simulator.share", evals *. per_eval_s /. untraced_run_s);
        ( "simulator.gap_frac",
          if simulated > 0.0 then 1.0 -. (evals *. per_eval_s /. simulated)
          else 0.0 );
        ( "spapt.cache_hit_frac",
          if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 );
        ("dynatree.observe_ms", List.assoc "learner.observe" spans *. 1e3);
        ("dynatree.predict_us", 0.0);
        ("dynatree.alc_ms", List.assoc "learner.select" spans *. 1e3);
        ("dynatree.busy_frac", busy_frac (phase "tree-update" +. phase "alc"));
        ("surrogate.observes", num snap [ "surrogate.observes" ]);
        ("surrogate.resamples", num snap [ "surrogate.resamples" ]);
        ("surrogate.alc.scores", num snap [ "surrogate.alc.scores" ]);
        ("learner.bookkeeping_frac", 0.0);
        ("learner.dataset_s", phase "dataset");
        ("phase.profiling_s", phase "profiling");
        ("phase.dataset_s", phase "dataset");
        ("phase.tree-update_s", phase "tree-update");
        ("phase.alc_s", phase "alc");
        ("phase.candidate-gen_s", phase "candidate-gen");
        ("phase.eval_s", phase "eval");
        ("phase.other_frac", busy_frac (phase "(other)"));
        ("pool.tasks", num snap [ "pool.tasks" ]);
        ("pool.steals", num snap [ "pool.steals" ]);
        ( "pool.queue_wait_p90_ms",
          bucket_quantile snap "pool.queue_wait_seconds" 0.9 *. 1e3 );
        ( "pool.busy_frac",
          summary.busy_s
          /. (float_of_int summary.domain_count *. summary.wall_s) );
        ("memo.hit_frac", 0.0);
        ("memo.cross_hit_frac", 0.0);
        ("memo.entries", 0.0);
        ("serve.wire_p90_us", num snap [ "serve.wire_seconds"; "p90" ] *. 1e6);
        ("serve.step_p90_ms", num snap [ "serve.step_seconds"; "p90" ] *. 1e3);
        ( "serve.memo_wait_p90_ms",
          num snap [ "serve.memo_wait_seconds"; "p90" ] *. 1e3 );
        ( "serve.queue_wait_p90_ms",
          num snap [ "serve.queue_wait_seconds"; "p90" ] *. 1e3 );
        ("obs.trace_overhead_frac", (r.run_s /. untraced_run_s) -. 1.0);
      ]
  in
  (* A workload's own observation of a layer replaces the trace-derived
     stand-in of the same name. *)
  List.map
    (fun (name, v) ->
      (name, Option.value (List.assoc_opt name r.layers) ~default:v))
    generic

(* --- Main -------------------------------------------------------------- *)

let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" Fun.id
      | _ -> scan ()
    in
    let kb = try scan () with End_of_file -> 0 in
    close_in ic;
    kb
  with Sys_error _ -> 0

let run_unit (w : workload) seed =
  Runs.clear_cache ();
  emit "begin" [ ("seed", Json.Int seed) ];
  let r = w.work seed in
  emit_unit ~seed r;
  r

let () =
  let usage () =
    prerr_endline
      "usage: bench.exe (table1-smoke|learn-paper|serve-fleet) --seeds \
       N1,N2,... --seconds S [--trace] [--setup-only] [--record]";
    exit 2
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let rec value name = function
    | [] -> None
    | f :: v :: _ when f = name -> Some v
    | _ :: rest -> value name rest
  in
  let has name = List.mem name args in
  let ints v = List.map int_of_string_opt (String.split_on_char ',' v) in
  let workload, seeds, seconds =
    match
      ( args,
        Option.map ints (value "--seeds" args),
        Option.bind (value "--seconds" args) int_of_string_opt )
    with
    | w :: _, Some seeds, Some seconds when not (List.mem None seeds) ->
        (w, Array.of_list (List.filter_map Fun.id seeds), float_of_int seconds)
    | _ -> usage ()
  in
  let record = has "--record" and trace = has "--trace" in
  let nominal_s, make =
    match workload with
    | "table1-smoke" -> (20.0, fun _ -> table1_smoke ())
    | "learn-paper" -> (7.0, fun seeds -> learn_paper ~seeds ~wrap:(not record))
    | "serve-fleet" -> (14.0, fun _ -> serve_fleet ())
    | _ -> usage ()
  in
  (* A traced run needs only the untraced unit that its traced unit is
     compared with. *)
  let units =
    if record || trace then 1
    else max 1 (int_of_float (Float.round (seconds /. nominal_s)))
  in
  let seeds = Array.sub seeds 0 (min units (Array.length seeds)) in
  let w = make (Array.to_list seeds) in
  let plan = List.init units (fun i -> seeds.(i mod Array.length seeds)) in
  emit "ready"
    [
      ("t_ns", Json.Int (Int64.to_int (now ())));
      ( "plan",
        Json.List
          (List.map
             (fun s -> Json.Int s)
             (plan @ if trace then [ seeds.(0) ] else [])) );
    ];
  if not (has "--setup-only") then begin
    let results = List.map (run_unit w) plan in
    if trace then begin
      let untraced_run_s = (List.hd results).run_s in
      let layers = traced_layers ~seed:seeds.(0) w ~untraced_run_s in
      emit "layers"
        [
          ( "metrics",
            Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) layers) );
        ]
    end
  end;
  emit "done" [ ("peak_rss_kb", Json.Int (peak_rss_kb ())) ];
  exit 0
