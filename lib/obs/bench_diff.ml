type record = {
  section : string;
  scale : string;
  jobs : int;
  seconds : float;
  host : string option;
  cores : int option;
  git_rev : string option;
  rate : (float * string) option;
}

type delta = {
  section : string;
  scale : string;
  jobs : int;
  baseline_s : float;
  current_s : float;
  delta_pct : float;
  rate : (float * float * string) option;
}

type diff = {
  deltas : delta list;
  skipped_baseline : int;
  skipped_current : int;
  unmatched : int;
}

let ( let* ) = Result.bind

(* --- Records ----------------------------------------------------------- *)

(* Wall-clock readings carry no more than milliseconds (and rates no
   more than tenths) of signal; rounding keeps each record line short. *)
let rounded digits x =
  let p = 10.0 ** float_of_int digits in
  Json.Float (Float.round (x *. p) /. p)

let record_json ?rate ?(extra = []) ~section ~seconds m =
  let rate =
    match rate with
    | Some (r, unit) ->
        [ ("rate", rounded 1 r); ("rate_unit", Json.String unit) ]
    | None -> []
  in
  Json.Obj
    ((("section", Json.String section) :: ("seconds", rounded 3 seconds)
      :: Manifest.fields m)
    @ rate @ extra)

let record_of_json j =
  let str key = Option.bind (Json.member key j) Json.to_string_opt in
  let int key = Option.bind (Json.member key j) Json.to_int_opt in
  let float key = Option.bind (Json.member key j) Json.to_float_opt in
  match (str "section", str "scale", int "jobs", float "seconds") with
  | Some section, Some scale, Some jobs, Some seconds ->
      (* A record tagged ["manifest": null] predates manifest stamping:
         keep it loadable but unmatched (host/cores stay [None]), so
         diffs skip it deterministically. *)
      let null_manifest =
        match Json.member "manifest" j with Some Json.Null -> true | _ -> false
      in
      let host = if null_manifest then None else str "host" in
      let cores = if null_manifest then None else int "cores" in
      let rate =
        match (float "rate", str "rate_unit") with
        | Some r, Some u -> Some (r, u)
        | _ -> None
      in
      Ok
        {
          section;
          scale;
          jobs;
          seconds;
          host;
          cores;
          git_rev = str "git_rev";
          rate;
        }
  | _ -> Error "bench record: missing section/scale/jobs/seconds"

(* --- Files ------------------------------------------------------------- *)

let items = function
  | Json.List items -> Ok items
  | _ -> Error "bench file: expected a JSON array of records"

let records_of_items items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | j :: rest ->
        let* r = record_of_json j in
        go (r :: acc) rest
  in
  go [] items

let of_json j = Result.bind (items j) records_of_items

let read_json path =
  try
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Json.of_string s
  with Sys_error e -> Error e

let load path = Result.bind (read_json path) of_json

(* Old and new records are checked and rendered together, so the file is
   always exactly what [load] reads: one record per line. *)
let append path records =
  let* existing =
    if Sys.file_exists path then Result.bind (read_json path) items else Ok []
  in
  let all = existing @ records in
  let* _ = records_of_items all in
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc "[\n%s\n]\n"
          (String.concat ",\n"
             (List.map (fun j -> "  " ^ Json.to_string j) all)));
    Ok ()
  with Sys_error e -> Error e

(* --- Matching ---------------------------------------------------------- *)

(* A record is comparable only if it carries its manifest: timings from
   unknown hosts (or pre-manifest history) cannot be meaningfully
   diffed. *)
let comparable (r : record) = Option.is_some r.host && Option.is_some r.cores

let key (r : record) =
  ( r.section,
    r.scale,
    r.jobs,
    Option.value ~default:"" r.host,
    Option.value ~default:0 r.cores )

(* Last record wins per key: the harness appends, so the newest timing of
   a configuration is the current truth. *)
let latest_by_key records =
  let tbl = Hashtbl.create 16 in
  List.iter (fun r -> if comparable r then Hashtbl.replace tbl (key r) r) records;
  tbl

let diff ~baseline ~current =
  let base_tbl = latest_by_key baseline in
  let skipped_baseline =
    List.length (List.filter (fun r -> not (comparable r)) baseline)
  in
  let skipped_current =
    List.length (List.filter (fun r -> not (comparable r)) current)
  in
  (* Dedupe current keeping the last occurrence, preserving first-seen
     order so the report reads in file order. *)
  let cur_tbl = latest_by_key current in
  let seen = Hashtbl.create 16 in
  let deltas, unmatched =
    List.fold_left
      (fun (deltas, unmatched) r ->
        if not (comparable r) then (deltas, unmatched)
        else
          let k = key r in
          if Hashtbl.mem seen k then (deltas, unmatched)
          else begin
            Hashtbl.add seen k ();
            let r = Hashtbl.find cur_tbl k in
            match Hashtbl.find_opt base_tbl k with
            | None -> (deltas, unmatched + 1)
            | Some b ->
                let delta_pct =
                  if b.seconds > 0.0 then
                    (r.seconds -. b.seconds) /. b.seconds *. 100.0
                  else 0.0
                in
                ( {
                    section = r.section;
                    scale = r.scale;
                    jobs = r.jobs;
                    baseline_s = b.seconds;
                    current_s = r.seconds;
                    delta_pct;
                    (* The unit comes from the current side; a unit
                       change between files means the section was
                       repurposed and the rates are incomparable anyway. *)
                    rate =
                      (match (b.rate, r.rate) with
                      | Some (br, _), Some (cr, unit) -> Some (br, cr, unit)
                      | _ -> None);
                  }
                  :: deltas,
                  unmatched )
          end)
      ([], 0) current
  in
  { deltas = List.rev deltas; skipped_baseline; skipped_current; unmatched }

let regressions ~max_regress d =
  List.filter (fun dl -> dl.delta_pct > max_regress) d.deltas

(* --- Rendering --------------------------------------------------------- *)

let render ?max_regress d =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %-9s %4s %12s %12s %9s\n" "section" "scale" "jobs"
       "baseline(s)" "current(s)" "delta");
  List.iter
    (fun dl ->
      let flag =
        match max_regress with
        | Some m when dl.delta_pct > m -> "  REGRESSION"
        | _ -> ""
      in
      let rate =
        match dl.rate with
        | Some (b, c, unit) -> Printf.sprintf "  (%.0f -> %.0f %s)" b c unit
        | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-9s %4d %12.3f %12.3f %+8.1f%%%s%s\n" dl.section
           dl.scale dl.jobs dl.baseline_s dl.current_s dl.delta_pct flag rate))
    d.deltas;
  if d.deltas = [] then
    Buffer.add_string buf "(no comparable sections: manifests differ)\n";
  if d.skipped_baseline > 0 || d.skipped_current > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "skipped %d baseline / %d current record(s) without a manifest\n"
         d.skipped_baseline d.skipped_current);
  if d.unmatched > 0 then
    Buffer.add_string buf
      (Printf.sprintf "%d current record(s) had no matching baseline\n"
         d.unmatched);
  Buffer.contents buf
