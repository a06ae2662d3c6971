(** Deterministic nemesis campaigns: named chaos scenarios — each a
    cluster configuration, a phased workload, and a {!Schedule} per
    phase — run against the live runtime with the online WS-Regularity
    checker watching, and judged against an explicit expectation:

    - [Clean]: every operation completes and the checker stays quiet
      (faults stay within the model's [≤ f] bound);
    - [Degraded]: the schedule deliberately exceeds [f] for a window —
      operations in [may_fail] phases must fail {e fast} with
      {!Regemu_live.Cluster.Unavailable} (never crawl to the retry
      deadline), everything outside the window must complete, and the
      checker must stay quiet;
    - [Violation]: the scenario breaks an assumption the protocol needs
      (amnesia restarts wiping storage) and the checker {e must} flag
      it — a passing run is one where the violation is caught.

    Everything is derived from the scenario's seed: the transport's
    fault stream, the retry jitter, and the seeded schedule generators.
    Two runs with the same seed replay the same campaign. *)

type algo =
  | Register of Regemu_live.Algo.t
      (** one single-register algorithm from the registry, built with
          {!Regemu_live.Algo.start} *)
  | Keyed
      (** drive {!Regemu_keyspace.Kspace} operations on key 0 — the
          keyed retry path; keyed ops log to the kspace's Klog, so the
          single-register online checker sees an empty history *)

val algo_name : algo -> string

type expectation = Clean | Degraded | Violation

val expectation_name : expectation -> string

type phase = {
  label : string;
  writes_per_writer : int;
  reads_per_reader : int;
  gap_ms : int;  (** pause between one client's operations *)
  may_fail : bool;
      (** operations here may fail with [Unavailable] without failing
          the scenario *)
  schedule : Schedule.t;  (** replayed from the phase's start *)
}

type scenario = {
  name : string;
  descr : string;
  algo : algo;
  k : int;  (** writer clients *)
  readers : int;
  f : int;
  n : int;
  recovery : Regemu_live.Recovery.mode;
  drop_prob : float;
  dup_prob : float;
  delay_prob : float;
  max_delay_us : int;
  hedge : bool;
      (** run with hedged quorum rounds and adaptive deadlines
          ({!Regemu_live.Hedge.default_config} /
          {!Regemu_live.Deadline.default_config}) *)
  expect : expectation;
  seed : int;
  phases : phase list;
}

type phase_outcome = {
  p_label : string;
  expected : int;
  completed : int;
  failed : int;  (** operations that raised [Unavailable] *)
  max_unavail_s : float;  (** slowest fail-fast, 0 when none *)
  nemesis : Nemesis.counters;
}

type outcome = {
  scenario : scenario;
  phases : phase_outcome list;  (** empty if the run aborted *)
  stats : Regemu_live.Cluster.stats;
  backoff_ms : (int * int) list;
  check : Regemu_live.Checker.result;
  wall_s : float;
  pass : bool;  (** outcome matches the scenario's expectation *)
  failure : string option;  (** why not, when [not pass] *)
}

(** Run one scenario to completion: spawn the cluster, replay each
    phase's schedule via a {!Nemesis} while the load threads drive the
    register (absorbing [Unavailable] into the phase outcome), stop the
    checker, and judge the result.  [log] receives progress lines.
    [sink] instruments the scenario's cluster
    ({!Regemu_live.Cluster.create}); pass a fresh one per scenario if
    it carries a metrics registry. *)
val run : ?log:(string -> unit) -> ?sink:Regemu_live.Sink.t -> scenario -> outcome

(** [trace] collects every scenario's events into one trace (a metrics
    registry cannot be shared across scenarios, so only a trace
    threads here). *)
val run_all :
  ?log:(string -> unit) ->
  ?trace:Regemu_obs.Trace.t ->
  scenario list ->
  outcome list

(** The full campaign: rolling crashes (ABD and Algorithm 2), a healed
    majority partition, seeded flapping, a beyond-[f] outage, the
    amnesia wipe, the gray-failure quartet — one straggler, rotating
    straggler, a straggler squeezed against the [f] crash budget (all
    hedged) — the keyspace outage, and the CDS arms: the rival
    emulation through rolling crashes, the partition, flapping, the
    beyond-[f] outage, amnesia, and the straggler ([-cds]-suffixed
    scenario names). *)
val campaign : seed:int -> scenario list

(** The bounded subset for CI: rolling crashes (ABD and CDS),
    beyond-[f], amnesia (ABD and CDS), one-straggler,
    keyspace-outage. *)
val smoke : seed:int -> scenario list

val names : unit -> string list
val by_name : seed:int -> string -> scenario option

val phase_outcome_pp : phase_outcome Fmt.t
val outcome_pp : outcome Fmt.t
val all_pass : outcome list -> bool

(** The [regemu-chaos/1] report document. *)
val to_json : seed:int -> smoke:bool -> outcome list -> Regemu_obs.Json.t
