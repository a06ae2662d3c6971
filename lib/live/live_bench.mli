(** Throughput/latency benchmark of the live cluster runtime: ABD (and
    its atomic write-back variant) vs the paper's Algorithm 2 vs the
    CDS multi-writer data store ({!Cds_live}), across client-thread
    counts and fault rates, every run validated online by the
    consistency checkers.

    A run starts an [n]-server cluster, [k] writer + [readers] reader
    threads, an online {!Checker}, optionally a {!Fault} injector, and
    measures wall-clock ops/s, p50/p95/p99 operation latency (via
    {!Regemu_sim.Stats.percentiles}), and the resident-space maxima
    sampled from the server stores through the run. *)

type spec = {
  algo : Algo.t;
  k : int;  (** writer threads *)
  readers : int;
  f : int;
  n : int;
  ops_per_client : int;
  couriers : int;
  chaos : bool;  (** crash/restart injector + delays + duplication *)
  reorder : bool;  (** transport reordering (off in saturation mode) *)
  backend : Transport.backend;  (** message fabric under the cluster *)
  seed : int;
}

(** [k + readers = 4] client threads, [n = 2f+1] servers by default;
    [backend] defaults to [Threads]. *)
val default_spec :
  ?backend:Transport.backend -> algo:Algo.t -> chaos:bool -> seed:int -> unit -> spec

type outcome = {
  spec : spec;
  ops : int;  (** completed operations *)
  wall_s : float;
  throughput : float;  (** completed ops per second *)
  mean_us : float;
  pcts_us : (float * float) list;  (** (level, latency µs) for p50/p95/p99 *)
  msgs_sent : int;
  msgs_delivered : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_dropped : int;  (** lost to the chaos drop rate *)
  msgs_cut : int;  (** lost to a partition *)
  crashes : int;
  restarts : int;
  retries : int;  (** client retransmissions *)
  unavailable : int;  (** operations failed fast *)
  space_cells : int;
      (** resident cells, max over servers and over the run — sampled
          every 5 ms plus once at quiesce ({!Cluster.resident_space}) *)
  space_bytes : int;  (** resident bytes, same maxima *)
  space_cells_total : int;  (** cluster-wide resident cells at the peak *)
  check : Checker.result;
}

(** [true] when the run completed all operations and no checker
    violation was found. *)
val clean : outcome -> bool

val outcome_pp : outcome Fmt.t

(** Run one specification to completion (spawns and joins all threads).
    [sink] instruments the run ({!Cluster.create}).  One sink may span
    several runs: trace recorders are per-run (thread names repeat),
    and metric registration is idempotent, so counters accumulate
    across the runs Prometheus-style. *)
val run : ?sink:Sink.t -> spec -> outcome

(** [median_reps ~reps ~clean ~key run xs] runs every [x] of [xs]
    [reps] times, round-robin over the list ([run i x] in round [i]),
    and keeps each [x]'s median-by-[key] outcome — a point's
    repetitions are spread across the sweep, so a transient machine
    stall cannot poison all of them at once.  The first repetition that
    is not [clean] is kept instead, so failures are never averaged
    away.  Raises [Invalid_argument] if [reps < 1]. *)
val median_reps :
  reps:int ->
  clean:('o -> bool) ->
  key:('o -> float) ->
  (int -> 'x -> 'o) ->
  'x list ->
  'o list

(** {!median_reps} over {!run}, keyed by throughput.  Default
    [reps = 1].  [sink] spans the whole sweep (see {!run}). *)
val run_sweep_median : ?reps:int -> ?sink:Sink.t -> spec list -> outcome list

(** The standard suite: quiet and chaos runs of each algorithm. *)
val suite : ?ops_per_client:int -> seed:int -> unit -> spec list

(** The bounded, seed-fixed smoke suite for CI on the given backend
    (default [Threads]).  The [Socket] backend's smoke runs quiet
    (no chaos): a SIGKILLed child execs back with an empty store, and
    ABD under quorum-visible amnesia is not WS-regular — the checker
    would rightly flag it. *)
val smoke_suite : ?backend:Transport.backend -> unit -> spec list

(** {2 Saturation mode}

    The perf-trajectory benchmark: sweep client-thread counts at fixed
    [k = 1], [readers = clients - 1], [f = 1], [n = 3] on a quiet,
    non-reordering transport (peak pipeline), and report ops/s and
    latency percentiles per point. *)

(** One saturation point.  Raises [Invalid_argument] if [clients < 2]. *)
val saturate_spec :
  ?backend:Transport.backend ->
  algo:Algo.t ->
  clients:int ->
  ops_per_client:int ->
  seed:int ->
  unit ->
  spec

(** The default sweep: [2; 4; 8; 16]. *)
val saturate_clients : int list

(** The full single-backend sweep, ABD, Algorithm 2, and CDS at each
    client count. *)
val saturate_specs :
  ?backend:Transport.backend ->
  ?clients:int list ->
  ?ops_per_client:int ->
  seed:int ->
  unit ->
  spec list

(** {2 The three-way backend A/B}

    ABD at each client count on each backend, backends adjacent per
    count so {!run_sweep_median}'s round-robin repeats every
    (clients, backend) triple under the same machine weather. *)

(** The A/B client counts: [16; 32; 64; 128; 256]. *)
val saturate_ab_clients : int list

(** [Threads; Domains; Socket] — the A/B arms, in emission order. *)
val saturate_ab_backends : Transport.backend list

val saturate_ab_specs :
  ?clients:int list -> ?ops_per_client:int -> seed:int -> unit -> spec list

(** {2 Bench rows} *)

(** One {!Regemu_obs.Benchdoc} row: the spec as [params]; throughput,
    latency percentiles, message and fault counts, resident space and
    its paper-side formula ([space_formula_cells_total], {!Algo.cells}),
    and the checker verdicts as [metrics]; [clean] is {!clean}. *)
val row : name:string -> outcome -> Regemu_obs.Benchdoc.row

(** One {!row} per outcome, named
    ["BENCH/algo/backend[/chaos]/clients=N"] (e.g.
    ["saturate/abd/threads/clients=16"]); a non-threads row whose
    same-point threads row is in the list also carries
    [speedup_vs_threads]. *)
val rows : bench:string -> outcome list -> Regemu_obs.Benchdoc.row list

(** The metrics every live row must carry, all numeric. *)
val metrics : (string * Regemu_obs.Benchdoc.kind) list

(** The gate for a run of [specs]: one row per spec, named as in
    {!rows}, in order, each with {!metrics}. *)
val gate : bench:string -> spec list -> Regemu_obs.Benchdoc.gate
