(** The keyspace benchmark: one open-loop run per zipf skew, one bench
    row per skew.

    Each skew gets a fresh cluster, keyspace, and memory-bounded
    checker; the outcome records throughput, per-key server space
    (max/total resident cells), checker verdicts, and the checker's
    resident high-water mark against the spec's fixed [budget_ops] —
    the measured form of the bounded-memory claim. *)

type spec = {
  algo : Regemu_live.Algo.t;
      (** which emulation runs the per-key quorums; only [Abd] has a
          keyed form — {!run} rejects anything else *)
  n : int;
  f : int;
  keys : int;
  zipfs : float list;  (** one run per skew *)
  arrival_rate : float;
  total_ops : int;  (** per skew *)
  window : int;
  write_fraction : float;
  seed : int;
  deep_sample : int;
  budget_ops : int;  (** resident-op budget the checker must stay under *)
  backend : Regemu_live.Transport.backend;
      (** message fabric under each skew's cluster *)
}

val default_spec : spec

(** Small enough for [dune runtest]. *)
val smoke_spec : spec

type skew_outcome = {
  zipf : float;
  ops_per_s : float;
  completed : int;
  failed : int;
  elapsed_s : float;
  max_lateness_s : float;
  checks : int;
  violations : int;
  settled_writes : int;
  broken_keys : int;
      (** keys the checker gave up on after a concurrent write: their
          reads count in [checks] but are judged vacuously *)
  max_resident_ops : int;
  within_budget : bool;
  server_cells_max : int;
  server_cells_total : int;
  deep_keys : int;
  deep_mismatches : int;
}

type outcome = { spec : spec; skews : skew_outcome list }

(** One fresh cluster + keyspace + checker per skew; [quiet] silences
    the per-skew progress lines.  [sink] reaches each skew's cluster,
    keyspace gauges, and checker.  Raises [Invalid_argument] when
    [spec.algo] is not [Abd] (the only algorithm with a keyed form). *)
val run : ?quiet:bool -> ?sink:Regemu_live.Sink.t -> spec -> outcome

(** One {!Regemu_obs.Benchdoc} row per skew, named ["zipf=%g"] (e.g.
    ["zipf=0.99"]): the spec and the skew as
    [params], the {!skew_outcome} fields as [metrics].  A row is clean
    when the checker found no violation and no deep mismatch and stayed
    within budget. *)
val rows : outcome -> Regemu_obs.Benchdoc.row list

(** Bench ["keyspace"]: one row per [spec.zipfs] entry, in order, each
    with numeric [ops_per_s], [completed], [checks], [violations] and
    [max_resident_ops] and a boolean [within_budget]. *)
val gate : spec -> Regemu_obs.Benchdoc.gate

val outcome_pp : outcome Fmt.t
