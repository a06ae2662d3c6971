module Json = Regemu_obs.Json
module Benchdoc = Regemu_obs.Benchdoc

type spec = {
  algo : Algo.t;
  readers : int;
  f : int;
  n : int;
  ops_per_client : int;
  base_us : int;
  straggler_us : int;
  straggler : int;
  couriers : int;
  backend : Transport.backend;
  seed : int;
}

let default_spec ?(backend = Transport.Threads) ?(algo = Algo.Abd) ~seed
    () =
  {
    algo;
    readers = 3;
    f = 1;
    n = 3;
    ops_per_client = 120;
    base_us = 1_000;
    straggler_us = 10_000;
    straggler = 2;
    couriers = 3;
    backend;
    seed;
  }

let smoke_spec ?backend ?algo ~seed () =
  { (default_spec ?backend ?algo ~seed ()) with ops_per_client = 25 }

let validate_spec s =
  if s.readers < 1 then invalid_arg "Tail_bench: need at least one reader";
  if s.ops_per_client < 1 then
    invalid_arg "Tail_bench: ops_per_client must be >= 1";
  if s.straggler < 0 || s.straggler >= s.n then
    invalid_arg "Tail_bench: straggler server out of range";
  if s.base_us < 0 || s.straggler_us < s.base_us then
    invalid_arg "Tail_bench: need 0 <= base_us <= straggler_us"

(* The three arms.  [Baseline] is the fault-free reference; the other
   two run under the straggler and differ only in whether the armed
   hedge ever fires — [Unhedged] sends each round to the chosen
   quorum-sized subset and then just waits, which is exactly the
   ablation the hedge must beat. *)
type arm = Baseline | Unhedged | Hedged

let arm_name = function
  | Baseline -> "baseline"
  | Unhedged -> "unhedged"
  | Hedged -> "hedged"

let arms = [ Baseline; Unhedged; Hedged ]

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

let arm_clean s a =
  Checker.ok a.check && a.ops = (1 + s.readers) * s.ops_per_client

let pct o p = try List.assoc p o.pcts_us with Not_found -> 0.0

let find_arm o arm = List.find (fun a -> a.arm = arm) o.arms

(* hedged-under-straggler p99 over fault-free p99 — the headline
   number; 0 when the baseline measured nothing *)
let p99_ratio o =
  let b = pct (find_arm o Baseline) 0.99 in
  if b > 0.0 then pct (find_arm o Hedged) 0.99 /. b else 0.0

let run_arm ?(sink = Sink.none) s arm =
  let transport =
    {
      Transport.couriers = s.couriers;
      delay_prob = 0.0;
      max_delay_us = 0;
      dup_prob = 0.0;
      drop_prob = 0.0;
      reorder = true;
      sharded = true;
      backend = s.backend;
      seed = s.seed;
    }
  in
  (* every arm runs with the same hedge/deadline machinery armed, so
     subset selection and the adaptive deadline are held constant; the
     only differences are the straggler and whether hedges fire *)
  let hedge =
    Some { Hedge.default_config with fire = (arm <> Unhedged) }
  in
  let cluster =
    Cluster.create ~sink
      {
        Cluster.n = s.n;
        transport;
        op_timeout_s = 30.0;
        recovery = Recovery.Persist;
        retry = Some Retry.default_config;
        hedge;
        deadline = Some Deadline.default_config;
      }
  in
  let writers = [ Cluster.new_client cluster ] in
  let readers = List.init s.readers (fun _ -> Cluster.new_client cluster) in
  let write, read = Algo.start s.algo cluster ~f:s.f ~writers in
  Cluster.start cluster;
  (* the gray injection: a uniform per-envelope delay on every link
     models the network floor, and one server gets the 10x version *)
  for srv = 0 to s.n - 1 do
    Cluster.set_slow cluster ~server:srv s.base_us
  done;
  if arm <> Baseline then
    Cluster.set_slow cluster ~server:s.straggler s.straggler_us;
  let checker = Checker.spawn cluster ~interval_s:0.01 () in
  let t0 = Clock.now_s () in
  let result =
    try
      Load.run ~write ~read ~writers ~readers
        ~ops_per_client:s.ops_per_client;
      Ok ()
    with e -> Error e
  in
  let wall_s = Clock.now_s () -. t0 in
  let check = Checker.stop checker in
  let stats = Cluster.stats cluster in
  let lats = Cluster.latencies_ns cluster in
  Cluster.shutdown cluster;
  (match result with Ok () -> () | Error e -> raise e);
  let mean_us =
    match lats with
    | [] -> 0.0
    | _ ->
        List.fold_left (fun a l -> a +. float_of_int l) 0.0 lats
        /. float_of_int (List.length lats) /. 1e3
  in
  {
    arm;
    ops = stats.Cluster.ops_completed;
    wall_s;
    mean_us;
    pcts_us =
      List.map
        (fun (p, ns) -> (p, float_of_int ns /. 1e3))
        (Regemu_sim.Stats.percentiles lats);
    hedges = stats.Cluster.hedges;
    hedge_wins = stats.Cluster.hedge_wins;
    msgs_slowed = stats.Cluster.msgs_slowed;
    retries = stats.Cluster.retries;
    unavailable = stats.Cluster.unavailable;
    check;
  }

(* Single-core thread scheduling injects multi-millisecond hiccups
   into any arm's p99, so each reported arm is its median-by-p99 over
   [reps] interleaved rounds ({!Live_bench.median_reps}); round [i]
   runs at seed [seed + 1000 i]. *)
let run ?sink ?(reps = 1) s =
  validate_spec s;
  let arms =
    Live_bench.median_reps ~reps ~clean:(arm_clean s)
      ~key:(fun a -> pct a 0.99)
      (fun i arm -> run_arm ?sink { s with seed = s.seed + (1000 * i) } arm)
      arms
  in
  { spec = s; arms }

(* --- reporting ---------------------------------------------------------- *)

let arm_pp s ppf a =
  Fmt.pf ppf
    "%-8s %d ops in %.3fs: µs mean=%.0f %a; %d hedges (%d won), %d slowed, \
     %d retries, %d unavailable%s"
    (arm_name a.arm) a.ops a.wall_s a.mean_us
    Fmt.(
      list ~sep:(any " ") (fun ppf (p, v) ->
          Fmt.pf ppf "p%.0f=%.0f" (p *. 100.) v))
    a.pcts_us a.hedges a.hedge_wins a.msgs_slowed a.retries a.unavailable
    (if arm_clean s a then "" else " DIRTY")

let outcome_pp ppf o =
  Fmt.pf ppf
    "tail: straggler server %d at +%dus (base +%dus), %d ops/client"
    o.spec.straggler o.spec.straggler_us o.spec.base_us o.spec.ops_per_client;
  List.iter (fun a -> Fmt.pf ppf "@.  %a" (arm_pp o.spec) a) o.arms;
  Fmt.pf ppf "@.  hedged p99 / fault-free p99 = %.2f" (p99_ratio o)

let rows o =
  let s = o.spec in
  List.map
    (fun a ->
      {
        Benchdoc.name = arm_name a.arm;
        params =
          [
            ("algo", Json.Str (Algo.name s.algo));
            ("backend", Json.Str (Transport.backend_name s.backend));
            ("arm", Json.Str (arm_name a.arm));
            ("straggler", Json.Bool (a.arm <> Baseline));
            ("hedge_fires", Json.Bool (a.arm <> Unhedged));
            ("clients", Json.Int (1 + s.readers));
            ("f", Json.Int s.f);
            ("n", Json.Int s.n);
            ("ops_per_client", Json.Int s.ops_per_client);
            ("base_us", Json.Int s.base_us);
            ("straggler_us", Json.Int s.straggler_us);
            ("straggler_server", Json.Int s.straggler);
            ("seed", Json.Int s.seed);
          ];
        metrics =
          [
            ("ops", Json.Int a.ops);
            ("wall_s", Json.Float a.wall_s);
            ("latency_mean_us", Json.Float a.mean_us);
            ("latency_p50_us", Json.Float (pct a 0.50));
            ("latency_p95_us", Json.Float (pct a 0.95));
            ("latency_p99_us", Json.Float (pct a 0.99));
            ("hedges", Json.Int a.hedges);
            ("hedge_wins", Json.Int a.hedge_wins);
            ("msgs_slowed", Json.Int a.msgs_slowed);
            ("retries", Json.Int a.retries);
            ("unavailable", Json.Int a.unavailable);
            ( "ws_regular",
              Json.Str
                (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp
                   a.check.Checker.ws) );
          ]
          @
          if a.arm = Hedged then
            [ ("p99_over_baseline", Json.Float (p99_ratio o)) ]
          else [];
        clean = arm_clean s a;
      })
    o.arms

let gate =
  {
    Benchdoc.bench = "tail";
    rows = List.map arm_name arms;
    metrics =
      List.map
        (fun k -> (k, Benchdoc.Num))
        [ "latency_p50_us"; "latency_p95_us"; "latency_p99_us" ];
  }
