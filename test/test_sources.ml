(* Source-level guards over the libraries.

   Metric handles must be plain values, not [lazy] ones: forcing a lazy
   value is not domain-safe in OCaml 5 (two domains forcing it at once
   raise [CamlinternalLazy.Undefined] or hang), pool tasks reach most of
   the libraries, and a {!Altune_obs.Metrics} handle already survives
   [Metrics.reset] by itself. *)

(* [lazy], optional parentheses, then a module-qualified instrument
   constructor such as [Metrics.counter]. *)
let lazy_instrument =
  Str.regexp
    "\\blazy[ \t\n(]*\\([A-Z][A-Za-z0-9_']*\\.\\)+\
     \\(counter\\|gauge\\|histogram\\|sketch\\)\\b"

(* Line numbers of every match in [src]. *)
let lazy_instruments src =
  let line_of i =
    List.length (String.split_on_char '\n' (String.sub src 0 i))
  in
  let rec from i =
    match Str.search_forward lazy_instrument src i with
    | j -> line_of j :: from (Str.match_end ())
    | exception Not_found -> []
  in
  from 0

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix name ".ml" then [ path ]
         else [])

let test_detector () =
  Alcotest.(check (list int)) "flags lazy handles" [ 1; 2; 3 ]
    (lazy_instruments
       "let a = lazy (Metrics.counter \"x\")\n\
        let b = lazy (Obs_metrics.gauge \"y\")\n\
        let c = lazy Altune_obs.Metrics.histogram\n\
        let d = Metrics.counter \"z\"\n\
        let e = lazy (List.length [])\n\
        let f = lazy (counter \"w\")\n\
        let g = lazy (Metrics.counters \"v\")\n")

let test_no_lazy_metric_handles () =
  let files = ml_files "../lib" in
  Alcotest.(check bool) "library sources found" true (List.length files > 50);
  let offenders =
    List.concat_map
      (fun path ->
        List.map (Printf.sprintf "%s:%d" path)
          (lazy_instruments (In_channel.with_open_bin path In_channel.input_all)))
      files
  in
  Alcotest.(check (list string)) "lazy metric handles" [] offenders

let () =
  Alcotest.run "sources"
    [
      ( "metric handles",
        [
          Alcotest.test_case "detector" `Quick test_detector;
          Alcotest.test_case "no lazy handles in lib" `Quick
            test_no_lazy_metric_handles;
        ] );
    ]
