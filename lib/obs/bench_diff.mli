(** The bench record file: one writer, one reader, and a diff that flags
    timing regressions.

    A bench file ([BENCH_harness.json]) is a flat JSON array with one
    record per line.  Every producer — the harness sections, the
    surrogate and serve load benchmarks, [altune concheck --bench-out] —
    builds its records with {!record_json} and writes them with
    {!append}, so there is one schema: [section] and [seconds], the run
    manifest (host, cores, git rev, scale, jobs, ...), an optional
    [rate]/[rate_unit] pair, then section-specific counters.

    A diff only compares records whose {e matching key} — (section,
    scale, jobs, host, cores) — is identical on both sides: a timing from
    another machine, another core count, or the pre-manifest era (tagged
    ["manifest": null]) is skipped, never silently compared.  Within a
    key the {e last} record wins, since the file is append-only and the
    newest timing is the current truth.

    Drives [altune bench-diff BASELINE CURRENT --max-regress PCT], the
    CI gate that fails a build whose benchmark sections slowed down more
    than the threshold on a comparable host. *)

type record = {
  section : string;
  scale : string;
  jobs : int;
  seconds : float;
  host : string option;  (** [None]: not comparable (no manifest). *)
  cores : int option;
  git_rev : string option;
  rate : (float * string) option;
      (** Throughput and its display unit (["sched/s"], ["sess/s"],
          ["scores/s"], ...), read from a record's [rate]/[rate_unit]
          pair; [None] for plain timing records and for a [rate]
          without a unit.  Purely informational — matching and
          regression gating stay seconds-based. *)
}

type delta = {
  section : string;
  scale : string;
  jobs : int;
  baseline_s : float;
  current_s : float;
  delta_pct : float;  (** [(current - baseline) / baseline * 100]. *)
  rate : (float * float * string) option;
      (** Baseline rate, current rate and the current record's unit,
          when both records carry a rate. *)
}

type diff = {
  deltas : delta list;  (** Matched pairs, in current-file order. *)
  skipped_baseline : int;  (** Baseline records without a manifest. *)
  skipped_current : int;
  unmatched : int;  (** Comparable current records with no baseline. *)
}

val record_json :
  ?rate:float * string ->
  ?extra:(string * Json.t) list ->
  section:string ->
  seconds:float ->
  Manifest.t ->
  Json.t
(** The one bench record constructor: [section], [seconds] (rounded to
    milliseconds), then {!Manifest.fields}, then [rate] (rounded to
    tenths) and [rate_unit] when [rate] is given, then [extra] (section
    counters such as [minor_words_per_op] or the memo counters). *)

val append : string -> Json.t list -> (unit, string) result
(** [append path records] adds [records] to the bench file at [path]
    (created if missing) and rewrites it one record per line.  If the
    existing file is not a JSON array, or any old or new item is not a
    bench record, the result is an [Error] and the file is left
    untouched. *)

val record_of_json : Json.t -> (record, string) result
val of_json : Json.t -> (record list, string) result

val load : string -> (record list, string) result
(** Read a bench file. *)

val diff : baseline:record list -> current:record list -> diff

val regressions : max_regress:float -> diff -> delta list
(** Deltas slower than [max_regress] percent. *)

val render : ?max_regress:float -> diff -> string
(** Plain-text table; marks deltas beyond [max_regress] as REGRESSION. *)
