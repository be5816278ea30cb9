module Rng = Altune_prng.Rng

type t = {
  train_configs : Problem.config array;
  test_configs : Problem.config array;
  test_means : float array;
}

let distinct_configs (problem : Problem.t) rng n =
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n [||] in
  let found = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 200 * n in
  while !found < n && !attempts < max_attempts do
    incr attempts;
    let c = problem.random_config rng in
    let k = Problem.key c in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out.(!found) <- c;
      incr found
    end
  done;
  if !found < n then
    invalid_arg
      (Printf.sprintf
         "Dataset.generate: could only draw %d distinct configurations of %d"
         !found n);
  out

let generate (problem : Problem.t) ~rng ~n_configs ~test_fraction ~n_obs =
  if test_fraction <= 0.0 || test_fraction >= 1.0 then
    invalid_arg "Dataset.generate: test_fraction out of (0,1)";
  if n_obs < 1 then invalid_arg "Dataset.generate: n_obs must be positive";
  let configs = distinct_configs problem rng n_configs in
  Rng.shuffle rng configs;
  let n_test =
    max 1 (int_of_float (Float.round (test_fraction *. float_of_int n_configs)))
  in
  let n_test = min n_test (n_configs - 1) in
  let test_configs = Array.sub configs 0 n_test in
  let train_configs = Array.sub configs n_test (n_configs - n_test) in
  let test_means =
    Array.map
      (fun c ->
        let acc = ref 0.0 in
        for run_index = 1 to n_obs do
          acc := !acc +. problem.measure ~rng ~run_index c
        done;
        !acc /. float_of_int n_obs)
      test_configs
  in
  { train_configs; test_configs; test_means }
