module Sync = Altune_exec.Sync
module Pool = Altune_exec.Pool
module Memo = Altune_exec.Memo
module Fault = Altune_exec.Fault
module Metrics = Altune_obs.Metrics

type expect = Clean | Race | Deadlock

type t = {
  name : string;
  descr : string;
  expect : expect;
  small : bool;
  run : unit -> string;
}

(* Fingerprints must be schedule-invariant for [Clean] scenarios: they
   include results, canonicalized (sorted) event streams and the
   counter deltas that the engine promises are schedule-free — and
   exclude anything legitimately schedule-dependent (wall times, event
   arrival order, steal counts, memo wait counts). *)

let counters names f =
  let cs = List.map Metrics.counter names in
  let before = List.map Metrics.counter_value cs in
  let v = f () in
  let deltas = List.map2 (fun c b -> Metrics.counter_value c - b) cs before in
  (v, List.map2 (fun n d -> Printf.sprintf "%s=%+d" n d) names deltas)

let event_to_string = function
  | Pool.Task_started { index; label } -> Printf.sprintf "start %d %s" index label
  | Pool.Task_finished { index; label; _ } ->
      Printf.sprintf "finish %d %s" index label

(* A thread spawned directly on the shim, with its outcome slot
   instrumented so the checker sees the join edge ordering it. *)
let spawn_collect site f =
  let slot = ref None in
  let loc = Sync.loc (site ^ ".slot") in
  let h =
    Sync.spawn (fun () ->
        let v = f () in
        Sync.write loc ~site:(site ^ ": store");
        slot := Some v)
  in
  fun () ->
    Sync.join h;
    Sync.read loc ~site:(site ^ ": read-back");
    Option.get !slot

(* --- Pool scenarios ---------------------------------------------------- *)

let pool_map ~jobs =
  {
    name = Printf.sprintf "pool_map_j%d" jobs;
    descr =
      Printf.sprintf
        "Pool.mapi of 5 tasks at jobs=%d with progress events: results and \
         the event multiset are schedule-invariant"
        jobs;
    expect = Clean;
    small = false;
    run =
      (fun () ->
        let events = ref [] in
        let ev_loc = Sync.loc "scenario.events" in
        let on_event e =
          (* The pool serializes this callback under [event_lock]; the
             instrumentation proves it, instead of trusting it. *)
          Sync.write ev_loc ~site:"pool_map: event append";
          events := event_to_string e :: !events
        in
        let results, deltas =
          counters [ "pool.tasks" ] (fun () ->
              Pool.with_pool ~on_event ~jobs (fun p ->
                  Pool.mapi
                    ~label:(fun i -> Printf.sprintf "t%d" i)
                    p
                    (fun i x -> (10 * x) + i)
                    [ 3; 1; 4; 1; 5 ]))
        in
        Sync.read ev_loc ~site:"pool_map: event read-back";
        let events = List.sort compare !events in
        Printf.sprintf "results=%s events=[%s] %s"
          (String.concat ";" (List.map string_of_int results))
          (String.concat "," events)
          (String.concat " " deltas));
  }

let pool_nested =
  {
    name = "pool_nested";
    descr =
      "nested fan-out (a task maps again on the same pool): the helping \
       scheduler must neither deadlock nor reorder results";
    expect = Clean;
    small = false;
    run =
      (fun () ->
        let grids =
          Pool.with_pool ~jobs:2 (fun p ->
              Pool.map p
                (fun row ->
                  Pool.map p (fun col -> (10 * row) + col) [ 0; 1 ])
                [ 1; 2 ])
        in
        Printf.sprintf "grids=%s"
          (String.concat ";"
             (List.map
                (fun g -> String.concat "," (List.map string_of_int g))
                grids)));
  }

exception Boom of int

let pool_exception =
  {
    name = "pool_exception";
    descr =
      "two tasks of five raise: every task still runs and the \
       lowest-indexed failure is re-raised on every schedule";
    expect = Clean;
    small = false;
    run =
      (fun () ->
        let ran = Atomic.make 0 in
        match
          Pool.with_pool ~jobs:3 (fun p ->
              Pool.map p
                (fun i ->
                  Atomic.incr ran;
                  if i = 1 || i = 3 then raise (Boom i);
                  i)
                [ 0; 1; 2; 3; 4 ])
        with
        | _ -> "no exception (bug)"
        | exception Boom i ->
            Printf.sprintf "first-failure=%d ran=%d" i (Atomic.get ran));
  }

(* The failure path of nested fan-out: the raising task sits in an inner
   batch while its outer siblings fan out too, so they are blocked on the
   pool lock or helping drain when the failure lands.  A hang anywhere on
   the way out (an inner batch that never drains, a worker never woken to
   see [stop]) is a global blocked state to the checker. *)
let pool_nested_exception =
  {
    name = "pool_nested_exn";
    descr =
      "a task of an inner fan-out raises while outer siblings block on \
       the pool lock or help drain: with_pool re-raises the original \
       exception and joins every worker on every schedule";
    expect = Clean;
    small = false;
    run =
      (fun () ->
        let outcome, deltas =
          counters [ "pool.tasks" ] (fun () ->
              match
                Pool.with_pool ~jobs:3 (fun p ->
                    Pool.map p
                      (fun row ->
                        Pool.map p
                          (fun col ->
                            if row = 1 && col = 0 then raise (Boom 10);
                            (10 * row) + col)
                          [ 0; 1 ])
                      [ 0; 1; 2 ])
              with
              | _ -> "no exception (bug)"
              | exception Boom i -> Printf.sprintf "raised=Boom %d" i)
        in
        Printf.sprintf "%s %s" outcome (String.concat " " deltas));
  }

(* --- Memo scenarios ---------------------------------------------------- *)

let memo_share =
  {
    name = "memo_share";
    descr =
      "three threads request one key: the computation runs exactly once \
       (1 miss, 2 hits) and everyone shares the value";
    expect = Clean;
    small = true;
    run =
      (fun () ->
        let m : (string, int) Memo.t = Memo.create ~name:"cc.share" () in
        let calls = ref 0 in
        let calls_loc = Sync.loc "cc.share.calls" in
        let compute () =
          (* Instrumented: if compute-once ever breaks, two computers
             racing on this counter is the first thing the checker sees. *)
          Sync.read calls_loc ~site:"memo_share: calls read";
          Sync.write calls_loc ~site:"memo_share: calls increment";
          incr calls;
          42
        in
        let joins =
          List.init 3 (fun i ->
              spawn_collect
                (Printf.sprintf "memo_share.t%d" i)
                (fun () -> Memo.find_or_compute m "k" compute))
        in
        let (vs, deltas) =
          counters [ "cc.share.hits"; "cc.share.misses" ] (fun () ->
              List.map (fun j -> j ()) joins)
        in
        Sync.read calls_loc ~site:"memo_share: calls read-back";
        Printf.sprintf "values=%s calls=%d %s"
          (String.concat ";" (List.map string_of_int vs))
          !calls
          (String.concat " " deltas));
  }

let memo_retry =
  {
    name = "memo_retry";
    descr =
      "the first computation of a key fails: the entry is dropped, \
       exactly one other caller recomputes, the third shares the value";
    expect = Clean;
    small = true;
    run =
      (fun () ->
        let m : (string, int) Memo.t = Memo.create ~name:"cc.retry" () in
        let attempts = ref 0 in
        let att_loc = Sync.loc "cc.retry.attempts" in
        let compute () =
          Sync.read att_loc ~site:"memo_retry: attempts read";
          Sync.write att_loc ~site:"memo_retry: attempts increment";
          incr attempts;
          if !attempts = 1 then failwith "flaky" else 7
        in
        let joins =
          List.init 3 (fun i ->
              spawn_collect
                (Printf.sprintf "memo_retry.t%d" i)
                (fun () ->
                  match Memo.find_or_compute m "k" compute with
                  | v -> Printf.sprintf "ok %d" v
                  | exception Failure _ -> "failed"))
        in
        let (vs, deltas) =
          counters [ "cc.retry.hits"; "cc.retry.misses" ] (fun () ->
              List.map (fun j -> j ()) joins)
        in
        Printf.sprintf "outcomes=%s attempts=%d %s"
          (String.concat ";" (List.sort compare vs))
          !attempts
          (String.concat " " deltas));
  }

let memo_clear =
  {
    name = "memo_clear";
    descr =
      "Memo.clear races an in-flight computation and a waiter: the \
       computer and the waiter still get the value, nothing deadlocks";
    expect = Clean;
    small = true;
    run =
      (fun () ->
        let m : (string, int) Memo.t = Memo.create ~name:"cc.clear" () in
        let pad = Sync.loc "cc.clear.pad" in
        let compute () =
          (* A few instrumented touches so the scheduler can interleave
             the clear inside the computation window. *)
          Sync.write pad ~site:"memo_clear: compute step 1";
          Sync.write pad ~site:"memo_clear: compute step 2";
          9
        in
        let j1 =
          spawn_collect "memo_clear.t1" (fun () ->
              Memo.find_or_compute m "a" compute)
        in
        let j2 =
          spawn_collect "memo_clear.t2" (fun () ->
              Memo.find_or_compute m "a" compute)
        in
        Memo.clear m;
        let v1 = j1 () and v2 = j2 () in
        (* Presence of "a" afterwards is legitimately schedule-dependent
           (cleared before or after publication); the values are not. *)
        Printf.sprintf "values=%d;%d" v1 v2);
  }

(* --- Fault-injection under the pool ------------------------------------ *)

let fault_retry =
  {
    name = "fault_retry";
    descr =
      "pool tasks drawing deterministic fault verdicts with retry: \
       verdicts are a pure function of (seed, key, attempt), so the \
       retry trace is schedule-invariant";
    expect = Clean;
    small = false;
    run =
      (fun () ->
        let spec =
          match Fault.of_string "crash=0.4,max_retries=5" with
          | Ok s -> s
          | Error e -> failwith e
        in
        let injector = Fault.create spec ~seed:11 in
        let outcomes =
          Pool.with_pool ~jobs:2 (fun p ->
              Pool.map p
                (fun i ->
                  let key = Printf.sprintf "task%d" i in
                  let rec attempt n =
                    if n > spec.Fault.max_retries then "dead"
                    else
                      match Fault.draw injector ~key ~attempt:n with
                      | Fault.Ok -> Printf.sprintf "ok@%d" n
                      | Fault.Crash -> attempt (n + 1)
                      | Fault.Timeout _ -> attempt (n + 1)
                      | Fault.Corrupt -> attempt (n + 1)
                  in
                  attempt 0)
                [ 0; 1; 2; 3 ])
        in
        Printf.sprintf "outcomes=%s" (String.concat ";" outcomes));
  }

(* --- Minimal lock demos (exhaustively enumerable) ----------------------- *)

let locked_counter =
  {
    name = "locked_counter";
    descr =
      "two threads increment a shared counter under one mutex: the \
       checker proves mutual exclusion over the whole interleaving space";
    expect = Clean;
    small = true;
    run =
      (fun () ->
        let m = Sync.mutex () in
        let n = ref 0 in
        let loc = Sync.loc "demo.counter" in
        let incr_once tag () =
          Sync.lock m;
          Sync.read loc ~site:(tag ^ ": load");
          let v = !n in
          Sync.write loc ~site:(tag ^ ": store");
          n := v + 1;
          Sync.unlock m
        in
        let j1 = spawn_collect "locked.t1" (incr_once "locked.t1") in
        let j2 = spawn_collect "locked.t2" (incr_once "locked.t2") in
        j1 ();
        j2 ();
        Sync.read loc ~site:"locked: final read";
        Printf.sprintf "n=%d" !n);
  }

(* --- Deliberately-broken fixtures (detector validation) ----------------- *)

let broken_memo =
  {
    name = "broken_memo";
    descr =
      "a memo with its lock removed: lookups and inserts race on the \
       table — the detector must name both access sites";
    expect = Race;
    small = true;
    run =
      (fun () ->
        let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let loc = Sync.loc "broken_memo.tbl" in
        let get_or_compute k =
          Sync.read loc ~site:"broken_memo: unlocked lookup";
          match Hashtbl.find_opt tbl k with
          | Some v -> v
          | None ->
              let v = 42 in
              Sync.write loc ~site:"broken_memo: unlocked insert";
              Hashtbl.replace tbl k v;
              v
        in
        let joins =
          List.init 2 (fun i ->
              spawn_collect
                (Printf.sprintf "broken_memo.t%d" i)
                (fun () -> get_or_compute "k"))
        in
        let vs = List.map (fun j -> j ()) joins in
        Printf.sprintf "values=%s"
          (String.concat ";" (List.map string_of_int vs)));
  }

let broken_counter =
  {
    name = "broken_counter";
    descr = "the locked_counter demo with the mutex deleted: a textbook race";
    expect = Race;
    small = true;
    run =
      (fun () ->
        let n = ref 0 in
        let loc = Sync.loc "broken.counter" in
        let incr_once tag () =
          Sync.read loc ~site:(tag ^ ": unlocked load");
          let v = !n in
          Sync.write loc ~site:(tag ^ ": unlocked store");
          n := v + 1
        in
        let j1 = spawn_collect "broken.t1" (incr_once "broken.t1") in
        let j2 = spawn_collect "broken.t2" (incr_once "broken.t2") in
        j1 ();
        j2 ();
        Printf.sprintf "n=%d" !n);
  }

let broken_wakeup =
  {
    name = "broken_wakeup";
    descr =
      "a producer sets the flag but forgets the broadcast: schedules \
       where the consumer waits first are lost wakeups — the explorer \
       must find the global blocked state";
    expect = Deadlock;
    small = true;
    run =
      (fun () ->
        let m = Sync.mutex () in
        let c = Sync.cond () in
        let flag = ref false in
        let loc = Sync.loc "wakeup.flag" in
        let producer =
          Sync.spawn (fun () ->
              Sync.lock m;
              Sync.write loc ~site:"broken_wakeup: set flag";
              flag := true;
              (* Missing: Sync.broadcast c *)
              Sync.unlock m)
        in
        Sync.lock m;
        let rec await () =
          Sync.read loc ~site:"broken_wakeup: check flag";
          if not !flag then begin
            Sync.wait c m;
            await ()
          end
        in
        await ();
        Sync.unlock m;
        Sync.join producer;
        "woken");
  }

let all =
  [
    pool_map ~jobs:3;
    pool_nested;
    pool_exception;
    pool_nested_exception;
    memo_share;
    memo_retry;
    memo_clear;
    fault_retry;
    locked_counter;
    broken_memo;
    broken_counter;
    broken_wakeup;
  ]

let find name = List.find_opt (fun s -> s.name = name) all
