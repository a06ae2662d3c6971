(** The tail-latency A/B bench: what a single 10x gray straggler does
    to operation latency (ABD by default, any {!Algo.t} via
    the [algo] field), and how much of it hedged quorum rounds claw
    back.

    Three arms run the same seeded workload on the same cluster shape,
    all with the hedge/deadline machinery armed (so subset selection
    and the adaptive deadline are held constant across arms):

    - [baseline]: no straggler — the fault-free reference;
    - [unhedged]: one server's link at [straggler_us] per envelope,
      but hedges never fire — each round sends to its quorum-sized
      subset and waits, the ablation;
    - [hedged]: the same straggler, hedges live.

    Every server link carries [base_us] per envelope (the network
    floor), so [straggler_us = 10 * base_us] is a 10x straggler.  The
    headline number is hedged-under-straggler p99 over fault-free p99,
    the hedged row's [p99_over_baseline] metric. *)

type spec = {
  algo : Algo.t;  (** which emulation runs the arms *)
  readers : int;  (** reader clients; always exactly one writer *)
  f : int;
  n : int;
  ops_per_client : int;
  base_us : int;  (** per-envelope delay on every server link *)
  straggler_us : int;  (** the straggler's per-envelope delay *)
  straggler : int;  (** which server turns gray *)
  couriers : int;
  backend : Transport.backend;  (** message fabric (default [Threads]) *)
  seed : int;
}

(** 1+3 clients, f=1 n=3, 120 ops/client, base 1ms, straggler 10ms on
    server 2; [algo] defaults to [Abd]. *)
val default_spec :
  ?backend:Transport.backend ->
  ?algo:Algo.t ->
  seed:int ->
  unit ->
  spec

(** [default_spec] cut to 25 ops/client for CI. *)
val smoke_spec :
  ?backend:Transport.backend ->
  ?algo:Algo.t ->
  seed:int ->
  unit ->
  spec

type arm = Baseline | Unhedged | Hedged

val arm_name : arm -> string

(** [[Baseline; Unhedged; Hedged]] — the run and row order. *)
val arms : arm list

type arm_outcome = {
  arm : arm;
  ops : int;
  wall_s : float;
  mean_us : float;
  pcts_us : (float * float) list;
  hedges : int;
  hedge_wins : int;
  msgs_slowed : int;
  retries : int;
  unavailable : int;
  check : Checker.result;
}

type outcome = { spec : spec; arms : arm_outcome list }

(** Run all three arms in order (baseline, unhedged, hedged), [reps]
    (default 1) interleaved rounds each, round [i] at seed
    [seed + 1000 i]; each reported arm is its median-by-p99 round
    ({!Live_bench.median_reps}), so a transient machine stall cannot
    masquerade as a tail regression.  A rep that fails its checks
    disqualifies the arm whole.  Raises [Invalid_argument] on a
    malformed spec or [reps < 1]. *)
val run : ?sink:Sink.t -> ?reps:int -> spec -> outcome

(** Hedged-under-straggler p99 over fault-free p99; 0 when the
    baseline measured nothing. *)
val p99_ratio : outcome -> float

val outcome_pp : outcome Fmt.t

(** One {!Regemu_obs.Benchdoc} row per arm, named by {!arm_name}:
    latency percentiles, hedge and retry counts, and the WS-Regularity
    verdict; the hedged row also carries [p99_over_baseline]
    ({!p99_ratio}).  A row is clean when its arm completed all its
    operations with a quiet checker. *)
val rows : outcome -> Regemu_obs.Benchdoc.row list

(** Bench ["tail"]: the three arm rows in {!arms} order, each with
    numeric latency percentiles. *)
val gate : Regemu_obs.Benchdoc.gate
