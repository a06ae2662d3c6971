module Json = Regemu_obs.Json

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

let clean o = List.for_all (arm_clean o.spec) o.arms

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
   into any arm's p99 (the same noise live_bench medians out), so the
   reported arms are per-arm medians-by-p99 over [reps] interleaved
   rounds — a transient machine stall poisons one round of each arm,
   never all of one arm's reps.  A dirty rep disqualifies the arm
   whole, surfacing the failure instead of a lucky median. *)
let run ?sink ?(reps = 1) s =
  validate_spec s;
  if reps < 1 then invalid_arg "Tail_bench: reps must be >= 1";
  let order = [ Baseline; Unhedged; Hedged ] in
  let rounds =
    List.init reps (fun i ->
        List.map (run_arm ?sink { s with seed = s.seed + (1000 * i) }) order)
  in
  let arms =
    List.mapi
      (fun i _ ->
        let outs = List.map (fun round -> List.nth round i) rounds in
        match List.find_opt (fun a -> not (arm_clean s a)) outs with
        | Some bad -> bad
        | None ->
            let sorted =
              List.sort
                (fun a b -> Float.compare (pct a 0.99) (pct b 0.99))
                outs
            in
            List.nth sorted (reps / 2))
      order
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

let arm_json s a =
  Json.Obj
    [
      ("arm", Json.Str (arm_name a.arm));
      ("straggler", Json.Bool (a.arm <> Baseline));
      ("hedge_fires", Json.Bool (a.arm <> Unhedged));
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
          (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp a.check.Checker.ws)
      );
      ("clean", Json.Bool (arm_clean s a));
    ]

let to_json o =
  Json.Obj
    [
      ("schema", Json.Str "regemu-tail/1");
      ("algo", Json.Str (Algo.name o.spec.algo));
      ("seed", Json.Int o.spec.seed);
      ("n", Json.Int o.spec.n);
      ("f", Json.Int o.spec.f);
      ("clients", Json.Int (1 + o.spec.readers));
      ("ops_per_client", Json.Int o.spec.ops_per_client);
      ("base_us", Json.Int o.spec.base_us);
      ("straggler_us", Json.Int o.spec.straggler_us);
      ("straggler_server", Json.Int o.spec.straggler);
      ("arms", Json.List (List.map (arm_json o.spec) o.arms));
      ("hedged_p99_over_baseline_p99", Json.Float (p99_ratio o));
      ("clean", Json.Bool (clean o));
    ]

(* Structural check of the regemu-tail/1 document: the three arms must
   be present (in A/B/ablation order) with numeric latency fields, and
   the headline ratio must be a number. *)
let validate_tail_json json =
  let ( let* ) = Result.bind in
  let field name = function
    | Json.Obj kvs -> (
        match List.assoc_opt name kvs with
        | Some v -> Ok v
        | None -> Error (Fmt.str "missing field %S" name))
    | _ -> Error "expected an object"
  in
  let numeric what = function
    | Json.Float _ | Json.Int _ -> Ok ()
    | _ -> Error (Fmt.str "%s must be a number" what)
  in
  let* schema = field "schema" json in
  let* () =
    match schema with
    | Json.Str "regemu-tail/1" -> Ok ()
    | Json.Str s -> Error (Fmt.str "bad schema %S" s)
    | _ -> Error "schema must be a string"
  in
  let* ratio = field "hedged_p99_over_baseline_p99" json in
  let* () = numeric "hedged_p99_over_baseline_p99" ratio in
  let* arms = field "arms" json in
  let* arms =
    match arms with Json.List l -> Ok l | _ -> Error "arms must be a list"
  in
  let* names =
    List.fold_left
      (fun acc a ->
        let* acc = acc in
        let* name = field "arm" a in
        let* name =
          match name with
          | Json.Str s -> Ok s
          | _ -> Error "arm name must be a string"
        in
        let* () =
          List.fold_left
            (fun acc k ->
              let* () = acc in
              let* v = field k a in
              numeric k v)
            (Ok ())
            [ "latency_p50_us"; "latency_p95_us"; "latency_p99_us" ]
        in
        Ok (name :: acc))
      (Ok []) arms
  in
  if List.rev names <> [ "baseline"; "unhedged"; "hedged" ] then
    Error "arms must be [baseline; unhedged; hedged]"
  else Ok ()
