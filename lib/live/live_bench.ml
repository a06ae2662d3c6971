module Json = Regemu_obs.Json
module Benchdoc = Regemu_obs.Benchdoc

type spec = {
  algo : Algo.t;
  k : int;
  readers : int;
  f : int;
  n : int;
  ops_per_client : int;
  couriers : int;
  chaos : bool;
  reorder : bool;
  backend : Transport.backend;
  seed : int;
}

let default_spec ?(backend = Transport.Threads) ~algo ~chaos ~seed () =
  { algo; k = 1; readers = 3; f = 1; n = 3; ops_per_client = 150;
    couriers = 3; chaos; reorder = true; backend; seed }

type outcome = {
  spec : spec;
  ops : int;
  wall_s : float;
  throughput : float;
  mean_us : float;
  pcts_us : (float * float) list;
  msgs_sent : int;
  msgs_delivered : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_dropped : int;
  msgs_cut : int;
  crashes : int;
  restarts : int;
  retries : int;
  unavailable : int;
  space_cells : int;  (* resident cells, max over servers, max over run *)
  space_bytes : int;  (* resident bytes likewise *)
  space_cells_total : int;  (* cluster-wide resident cells at the peak *)
  check : Checker.result;
}

let clean o =
  Checker.ok o.check
  && o.ops = (o.spec.k + o.spec.readers) * o.spec.ops_per_client

let outcome_pp ppf o =
  Fmt.pf ppf
    "%-10s %-7s %s k=%d readers=%d f=%d n=%d: %d ops in %.3fs (%.0f ops/s), \
     latency µs mean=%.0f %a; %d msgs (%d dup, %d delayed, %d dropped), %d \
     crashes / %d restarts, %d retries, %d unavailable; %a"
    (Algo.name o.spec.algo)
    (Transport.backend_name o.spec.backend)
    (if o.spec.chaos then "chaos" else "quiet")
    o.spec.k o.spec.readers o.spec.f o.spec.n o.ops o.wall_s o.throughput
    o.mean_us
    Fmt.(
      list ~sep:(any " ") (fun ppf (p, v) ->
          Fmt.pf ppf "p%.0f=%.0f" (p *. 100.) v))
    o.pcts_us o.msgs_sent o.msgs_duplicated o.msgs_delayed o.msgs_dropped
    o.crashes o.restarts o.retries o.unavailable Checker.result_pp o.check

let run ?(sink = Sink.none) spec =
  let transport =
    {
      Transport.couriers = spec.couriers;
      delay_prob = (if spec.chaos then 0.05 else 0.0);
      max_delay_us = (if spec.chaos then 500 else 0);
      dup_prob = (if spec.chaos then 0.05 else 0.0);
      drop_prob = (if spec.chaos then 0.03 else 0.0);
      reorder = spec.reorder;
      sharded = true;
      backend = spec.backend;
      seed = spec.seed;
    }
  in
  let cluster =
    Cluster.create ~sink
      {
        Cluster.n = spec.n;
        transport;
        op_timeout_s = 30.0;
        recovery = Recovery.Persist;
        retry = Some Retry.default_config;
        hedge = None;
        deadline = None;
      }
  in
  let writers = List.init spec.k (fun _ -> Cluster.new_client cluster) in
  let readers = List.init spec.readers (fun _ -> Cluster.new_client cluster) in
  let write, read = Algo.start spec.algo cluster ~f:spec.f ~writers in
  Cluster.start cluster;
  (* the space axis: sample resident cells/bytes through the run and
     keep the maxima.  Sampling is unsynchronised (a gauge, not an
     invariant) — a mid-rehash glance on the domains backend may throw,
     so each sample is best-effort; the final sample after the load
     drains is quiescent and authoritative for these monotone stores. *)
  let space = ref (0, 0, 0) in
  let sample_space () =
    try
      let c, b, tot = Cluster.resident_space cluster in
      let c0, b0, t0 = !space in
      space := (max c c0, max b b0, max tot t0)
    with _ -> ()
  in
  let sampling = Atomic.make true in
  let sampler =
    Thread.create
      (fun () ->
        while Atomic.get sampling do
          sample_space ();
          Thread.delay 0.005
        done)
      ()
  in
  (* atomicity is only promised by the write-back variant, and the
     brute-force checker needs a write-sequential-ish history: check it
     for single-writer write-back runs *)
  let checker =
    Checker.spawn cluster ~interval_s:0.01
      ~final_atomic:(spec.algo = Algo.Abd_wb && spec.k = 1)
      ()
  in
  let injector =
    if spec.chaos then
      Some
        (Fault.spawn cluster
           (Fault.default_config ~f:spec.f ~pool:spec.n ~seed:(spec.seed + 1)))
    else None
  in
  let t0 = Clock.now_s () in
  let result =
    try
      Load.run ~write ~read ~writers ~readers
        ~ops_per_client:spec.ops_per_client;
      Ok ()
    with e -> Error e
  in
  let wall_s = Clock.now_s () -. t0 in
  Option.iter Fault.stop injector;
  Atomic.set sampling false;
  Thread.join sampler;
  sample_space ();
  let space_cells, space_bytes, space_cells_total = !space in
  let check = Checker.stop checker in
  let stats = Cluster.stats cluster in
  let lats = Cluster.latencies_ns cluster in
  Cluster.shutdown cluster;
  (match result with Ok () -> () | Error e -> raise e);
  let ops = stats.Cluster.ops_completed in
  let mean_us =
    match lats with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a l -> a +. float_of_int l) 0.0 lats
        /. float_of_int (List.length lats) /. 1e3
  in
  {
    spec;
    ops;
    wall_s;
    throughput = (if wall_s > 0.0 then float_of_int ops /. wall_s else 0.0);
    mean_us;
    pcts_us =
      List.map
        (fun (p, ns) -> (p, float_of_int ns /. 1e3))
        (Regemu_sim.Stats.percentiles lats);
    msgs_sent = stats.Cluster.msgs_sent;
    msgs_delivered = stats.Cluster.msgs_delivered;
    msgs_duplicated = stats.Cluster.msgs_duplicated;
    msgs_delayed = stats.Cluster.msgs_delayed;
    msgs_dropped = stats.Cluster.msgs_dropped;
    msgs_cut = stats.Cluster.msgs_cut;
    crashes = stats.Cluster.crashes;
    restarts = stats.Cluster.restarts;
    retries = stats.Cluster.retries;
    unavailable = stats.Cluster.unavailable;
    space_cells;
    space_bytes;
    space_cells_total;
    check;
  }

(* The one repetition rule, for sweeps and tail arms alike: run [xs]
   [reps] times round-robin ([run i x] in round [i]) and keep each x's
   median-by-[key] outcome.  A machine stall lasting a few seconds
   poisons every back-to-back repetition of one point but only one
   round-robin pass of each, so the medians survive it.  Any dirty rep
   disqualifies its point: the first dirty one is kept, so the failure
   surfaces instead of a lucky median.  The median outcome is kept
   whole — its latency percentiles belong to the run whose key is
   reported. *)
let median_reps ~reps ~clean ~key run xs =
  if reps < 1 then invalid_arg "median_reps: reps must be >= 1";
  let rounds = List.init reps (fun i -> List.map (run i) xs) in
  List.mapi
    (fun j _ ->
      let outs = List.map (fun round -> List.nth round j) rounds in
      match List.find_opt (fun o -> not (clean o)) outs with
      | Some bad -> bad
      | None ->
          let sorted =
            List.sort (fun a b -> Float.compare (key a) (key b)) outs
          in
          List.nth sorted (reps / 2))
    xs

let run_sweep_median ?(reps = 1) ?sink specs =
  median_reps ~reps ~clean ~key:(fun o -> o.throughput)
    (fun _ s -> run ?sink s)
    specs

let suite ?(ops_per_client = 150) ~seed () =
  List.concat_map
    (fun algo ->
      List.map
        (fun chaos ->
          { (default_spec ~algo ~chaos ~seed ()) with ops_per_client })
        [ false; true ])
    Algo.all

(* The socket smoke runs quiet: a killed child execs back with an empty
   store whatever the recovery mode, and ABD under quorum-visible
   amnesia is not WS-regular — a chaos run would (correctly) trip the
   checker.  The other backends keep the crash/restart chaos. *)
let smoke_suite ?(backend = Transport.Threads) () =
  let chaos = backend <> Transport.Socket in
  [
    {
      (default_spec ~backend ~algo:Algo.Abd ~chaos ~seed:42 ()) with
      ops_per_client = 40;
    };
    {
      (default_spec ~backend ~algo:Algo.Alg2 ~chaos ~seed:43 ()) with
      ops_per_client = 40;
    };
    {
      (default_spec ~backend ~algo:Algo.Cds ~chaos ~seed:44 ()) with
      ops_per_client = 40;
    };
  ]

(* --- saturation mode ---------------------------------------------------- *)

let saturate_spec ?(backend = Transport.Threads) ~algo ~clients
    ~ops_per_client ~seed () =
  if clients < 2 then invalid_arg "saturate: need at least 2 clients";
  {
    algo;
    k = 1;
    readers = clients - 1;
    f = 1;
    n = 3;
    ops_per_client;
    couriers = 3;
    chaos = false;
    (* peak-pipeline mode: no artificial reordering in the lanes —
       chaos and correctness suites keep reorder on *)
    reorder = false;
    backend;
    seed;
  }

let saturate_clients = [ 2; 4; 8; 16 ]

let saturate_specs ?(backend = Transport.Threads) ?(clients = saturate_clients)
    ?(ops_per_client = 200) ~seed () =
  List.concat_map
    (fun algo ->
      List.map
        (fun c ->
          saturate_spec ~backend ~algo ~clients:c ~ops_per_client ~seed ())
        clients)
    [ Algo.Abd; Algo.Alg2; Algo.Cds ]

(* The head-to-head sweep: the same saturation point on every backend,
   backends adjacent in the run order (and the whole list round-robined
   by [run_sweep_median]), so each threads/domains/socket triple is
   measured under the same machine weather. *)
let saturate_ab_clients = [ 16; 32; 64; 128; 256 ]

let saturate_ab_backends =
  [ Transport.Threads; Transport.Domains; Transport.Socket ]

let saturate_ab_specs ?(clients = saturate_ab_clients)
    ?(ops_per_client = 200) ~seed () =
  List.concat_map
    (fun c ->
      List.map
        (fun backend ->
          saturate_spec ~backend ~algo:Algo.Abd ~clients:c ~ops_per_client
            ~seed ())
        saturate_ab_backends)
    clients

(* --- bench rows ------------------------------------------------------- *)

let pct o p = try List.assoc p o.pcts_us with Not_found -> 0.0

let row_name ~bench s =
  String.concat "/"
    ([ bench; Algo.name s.algo; Transport.backend_name s.backend ]
    @ (if s.chaos then [ "chaos" ] else [])
    @ [ Fmt.str "clients=%d" (s.k + s.readers) ])

let row ~name o =
  let s = o.spec in
  {
    Benchdoc.name;
    params =
      [
        ("algo", Json.Str (Algo.name s.algo));
        ("backend", Json.Str (Transport.backend_name s.backend));
        ("writers", Json.Int s.k);
        ("readers", Json.Int s.readers);
        ("clients", Json.Int (s.k + s.readers));
        ("f", Json.Int s.f);
        ("n", Json.Int s.n);
        ("ops_per_client", Json.Int s.ops_per_client);
        ("couriers", Json.Int s.couriers);
        ("chaos", Json.Bool s.chaos);
        ("reorder", Json.Bool s.reorder);
        ("seed", Json.Int s.seed);
      ];
    metrics =
      [
        ("ops", Json.Int o.ops);
        ("wall_s", Json.Float o.wall_s);
        ("ops_per_s", Json.Float o.throughput);
        ("latency_mean_us", Json.Float o.mean_us);
        ("latency_p50_us", Json.Float (pct o 0.50));
        ("latency_p95_us", Json.Float (pct o 0.95));
        ("latency_p99_us", Json.Float (pct o 0.99));
        ("msgs_sent", Json.Int o.msgs_sent);
        ("msgs_delivered", Json.Int o.msgs_delivered);
        ("msgs_duplicated", Json.Int o.msgs_duplicated);
        ("msgs_delayed", Json.Int o.msgs_delayed);
        ("msgs_dropped", Json.Int o.msgs_dropped);
        ("msgs_cut", Json.Int o.msgs_cut);
        ("crashes", Json.Int o.crashes);
        ("restarts", Json.Int o.restarts);
        ("retries", Json.Int o.retries);
        ("unavailable", Json.Int o.unavailable);
        ("space_resident_cells", Json.Int o.space_cells);
        ("space_resident_bytes", Json.Int o.space_bytes);
        ("space_cells_total", Json.Int o.space_cells_total);
        ( "space_formula_cells_total",
          Json.Int (Algo.cells s.algo ~k:s.k ~f:s.f ~n:s.n) );
        ("online_checks", Json.Int o.check.Checker.checks);
        ( "ws_regular",
          Json.Str
            (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp o.check.Checker.ws)
        );
        ( "atomic",
          match o.check.Checker.atomic with
          | None -> Json.Null
          | Some b -> Json.Bool b );
      ];
    clean = clean o;
  }

(* a non-threads row's ratio against the threads row of the same point
   in the same run *)
let rows ~bench outcomes =
  List.map
    (fun o ->
      let r = row ~name:(row_name ~bench o.spec) o in
      match
        List.find_opt
          (fun t -> t.spec = { o.spec with backend = Transport.Threads })
          outcomes
      with
      | Some th when o.spec.backend <> Transport.Threads && th.throughput > 0.0
        ->
          let speedup = o.throughput /. th.throughput in
          {
            r with
            metrics = r.metrics @ [ ("speedup_vs_threads", Json.Float speedup) ];
          }
      | _ -> r)
    outcomes

let metrics =
  List.map
    (fun k -> (k, Benchdoc.Num))
    [
      "ops_per_s"; "latency_p50_us"; "latency_p95_us"; "latency_p99_us";
      "space_resident_cells"; "space_resident_bytes"; "space_cells_total";
      "space_formula_cells_total";
    ]

let gate ~bench specs =
  { Benchdoc.bench; rows = List.map (row_name ~bench) specs; metrics }
