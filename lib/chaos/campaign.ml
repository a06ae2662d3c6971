open Regemu_objects
open Regemu_live
module Json = Regemu_obs.Json

type algo = Register of Algo.t | Keyed

let algo_name = function Register a -> Algo.name a | Keyed -> "keyspace"

(* scenario-name suffix: the ABD arms keep their historical bare names *)
let algo_suffix = function
  | Register Algo.Abd -> ""
  | Register Algo.Abd_wb -> "-abd-wb"
  | Register Algo.Alg2 -> "-alg2"
  | Register Algo.Cds -> "-cds"
  | Keyed -> "-keyed"

type expectation = Clean | Degraded | Violation

let expectation_name = function
  | Clean -> "clean"
  | Degraded -> "degraded"
  | Violation -> "violation"

type phase = {
  label : string;
  writes_per_writer : int;
  reads_per_reader : int;
  gap_ms : int;
  may_fail : bool;
  schedule : Schedule.t;
}

type scenario = {
  name : string;
  descr : string;
  algo : algo;
  k : int;
  readers : int;
  f : int;
  n : int;
  recovery : Recovery.mode;
  drop_prob : float;
  dup_prob : float;
  delay_prob : float;
  max_delay_us : int;
  hedge : bool;
  expect : expectation;
  seed : int;
  phases : phase list;
}

type phase_outcome = {
  p_label : string;
  expected : int;
  completed : int;
  failed : int;
  max_unavail_s : float;
  nemesis : Nemesis.counters;
}

type outcome = {
  scenario : scenario;
  phases : phase_outcome list;
  stats : Cluster.stats;
  backoff_ms : (int * int) list;
  check : Checker.result;
  wall_s : float;
  pass : bool;
  failure : string option;
}

(* a fail-fast Unavailable longer than this means the watchdog did not
   do its job and the op crawled to the retry deadline instead *)
let fail_fast_bound_s = 3.0

let retry_config =
  { Retry.base_s = 0.05; cap_s = 0.8; deadline_s = 6.0; grace_s = 0.3 }

let phase_expected s p =
  (s.k * p.writes_per_writer) + (s.readers * p.reads_per_reader)

(* --- one phase: nemesis replay + chaos-tolerant load ------------------- *)

let run_phase cluster s ~write ~read ~writers ~readers phase_ix phase =
  let completed = Atomic.make 0 and failed = Atomic.make 0 in
  let mu = Mutex.create () in
  let max_unavail = ref 0.0 in
  let first_error = Atomic.make None in
  let attempt op =
    try
      op ();
      Atomic.incr completed
    with Cluster.Unavailable u ->
      Atomic.incr failed;
      Mutex.lock mu;
      if u.Cluster.elapsed_s > !max_unavail then
        max_unavail := u.Cluster.elapsed_s;
      Mutex.unlock mu;
      Thread.delay 0.03
  in
  let guard body () =
    try body ()
    with e -> ignore (Atomic.compare_and_set first_error None (Some e))
  in
  let pace () =
    if phase.gap_ms > 0 then Thread.delay (float_of_int phase.gap_ms /. 1e3)
  in
  let writer_thread i cl () =
    for j = 1 to phase.writes_per_writer do
      attempt (fun () ->
          write cl (Value.Str (Printf.sprintf "p%d-w%d-%03d" phase_ix i j)));
      pace ()
    done
  in
  let reader_thread cl () =
    for _ = 1 to phase.reads_per_reader do
      attempt (fun () -> ignore (read cl));
      pace ()
    done
  in
  let nem = Nemesis.start cluster phase.schedule in
  let threads =
    List.mapi (fun i cl -> Thread.create (guard (writer_thread i cl)) ()) writers
    @ List.map (fun cl -> Thread.create (guard (reader_thread cl)) ()) readers
  in
  List.iter Thread.join threads;
  let nemesis = Nemesis.join nem in
  (match Atomic.get first_error with Some e -> raise e | None -> ());
  {
    p_label = phase.label;
    expected = phase_expected s phase;
    completed = Atomic.get completed;
    failed = Atomic.get failed;
    max_unavail_s = !max_unavail;
    nemesis;
  }

(* --- pass/fail ---------------------------------------------------------- *)

let evaluate (s : scenario) ~check ~(stats : Cluster.stats) phases =
  let pairs = List.combine s.phases phases in
  let clean po = po.completed = po.expected && po.failed = 0 in
  match s.expect with
  | Clean ->
      if not (Checker.ok check) then Some "checker flagged a violation"
      else if not (List.for_all (fun (_, po) -> clean po) pairs) then
        Some "not every operation completed"
      else None
  | Degraded ->
      if not (Checker.ok check) then Some "checker flagged a violation"
      else if
        not (List.exists (fun (p, po) -> p.may_fail && po.failed > 0) pairs)
      then Some "expected fail-fast Unavailable during the outage, saw none"
      else if not (List.for_all (fun (p, po) -> p.may_fail || clean po) pairs)
      then Some "operations failed outside the outage window"
      else if
        not
          (List.for_all
             (fun (_, po) -> po.max_unavail_s < fail_fast_bound_s)
             pairs)
      then Some "unavailable operations did not fail fast"
      else None
  | Violation ->
      if Checker.ok check then
        Some "expected a consistency violation, but the checker stayed clean"
      else if s.recovery = Recovery.Amnesia && stats.Cluster.wipes = 0 then
        Some "expected amnesia restarts to wipe a store, none did"
      else None

(* --- one scenario ------------------------------------------------------- *)

let run ?(log = ignore) ?(sink = Sink.none) s =
  List.iter (fun p -> Schedule.validate ~n:s.n p.schedule) s.phases;
  let transport =
    {
      Transport.couriers = 3;
      delay_prob = s.delay_prob;
      max_delay_us = s.max_delay_us;
      dup_prob = s.dup_prob;
      drop_prob = s.drop_prob;
      reorder = true;
      sharded = true;
      backend = Transport.Threads;
      seed = s.seed;
    }
  in
  let cluster =
    Cluster.create ~sink
      {
        Cluster.n = s.n;
        transport;
        op_timeout_s = 60.0;
        recovery = s.recovery;
        retry = Some retry_config;
        hedge = (if s.hedge then Some Hedge.default_config else None);
        deadline = (if s.hedge then Some Deadline.default_config else None);
      }
  in
  let writers = List.init s.k (fun _ -> Cluster.new_client cluster) in
  let readers = List.init s.readers (fun _ -> Cluster.new_client cluster) in
  let write, read =
    match s.algo with
    | Register a -> Algo.start a cluster ~f:s.f ~writers
    | Keyed ->
        (* every operation targets key 0: the schedule partitions that
           key's replica set, so the keyed retry/fail-fast path is what
           gets exercised.  Keyed ops log to the kspace's Klog, not the
           cluster Histlog, so the online checker sees an empty (clean)
           history — judgment rides on the expectation instead. *)
        let ks = Regemu_keyspace.Kspace.create cluster ~f:s.f () in
        let worker =
          let table =
            List.map
              (fun cl -> (cl, Regemu_keyspace.Kspace.worker_of ks cl))
              (writers @ readers)
          in
          fun cl -> List.assq cl table
        in
        ( (fun cl v -> Regemu_keyspace.Kspace.write ks (worker cl) ~key:0 v),
          fun cl -> Regemu_keyspace.Kspace.read ks (worker cl) ~key:0 )
  in
  Cluster.start cluster;
  let checker = Checker.spawn cluster ~interval_s:0.02 () in
  let t0 = Unix.gettimeofday () in
  let phases_result =
    try
      Ok
        (List.mapi
           (fun ix p ->
             log (Fmt.str "%s: phase %s (%a)" s.name p.label Schedule.pp
                    p.schedule);
             run_phase cluster s ~write ~read ~writers ~readers ix p)
           s.phases)
    with e -> Error e
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let check = Checker.stop checker in
  let stats = Cluster.stats cluster in
  let backoff_ms = Cluster.backoff_histogram cluster in
  Cluster.shutdown cluster;
  let phases, failure =
    match phases_result with
    | Ok phases -> (phases, evaluate s ~check ~stats phases)
    | Error e -> ([], Some (Printexc.to_string e))
  in
  { scenario = s; phases; stats; backoff_ms; check; wall_s;
    pass = failure = None; failure }

(* --- the campaigns ------------------------------------------------------ *)

let base ~seed =
  {
    name = "";
    descr = "";
    algo = Register Algo.Abd;
    k = 1;
    readers = 2;
    f = 1;
    n = 3;
    recovery = Recovery.Persist;
    drop_prob = 0.0;
    dup_prob = 0.0;
    delay_prob = 0.0;
    max_delay_us = 0;
    hedge = false;
    expect = Clean;
    seed;
    phases = [];
  }

let one_phase ?(may_fail = false) ~label ~writes ~reads ~gap_ms schedule =
  [
    {
      label;
      writes_per_writer = writes;
      reads_per_reader = reads;
      gap_ms;
      may_fail;
      schedule;
    };
  ]

let rolling_crashes ~seed ~algo ~rounds ~ops =
  {
    (base ~seed) with
    name = "rolling-crashes" ^ algo_suffix algo;
    descr =
      Fmt.str
        "crash and restart every server %d time(s) in turn under message \
         loss, duplication, and delay (%s)"
        rounds (algo_name algo);
    algo;
    drop_prob = 0.04;
    dup_prob = 0.03;
    delay_prob = 0.05;
    max_delay_us = 400;
    phases =
      one_phase ~label:"rolling" ~writes:ops ~reads:ops ~gap_ms:55
        (Schedule.rolling_crashes ~n:3 ~rounds ~gap_ms:90 ());
  }

let majority_partition ?(algo = Register Algo.Abd) ~seed () =
  {
    (base ~seed) with
    name = "majority-partition" ^ algo_suffix algo;
    descr =
      Fmt.str
        "isolate the minority server for half a second; clients keep a \
         majority and every operation completes (%s)"
        (algo_name algo);
    algo;
    drop_prob = 0.02;
    phases =
      one_phase ~label:"split" ~writes:10 ~reads:10 ~gap_ms:55
        (Schedule.minority_partition ~n:3 ~at_ms:80 ~heal_at_ms:600);
  }

let flapping ?(algo = Register Algo.Abd) ~seed () =
  {
    (base ~seed) with
    name = "flapping" ^ algo_suffix algo;
    descr =
      Fmt.str
        "seeded flapping: loss-rate pulses interleaved with single-server \
         crash/restart flips (%s)"
        (algo_name algo);
    algo;
    phases =
      one_phase ~label:"flap" ~writes:12 ~reads:12 ~gap_ms:60
        (Schedule.flapping ~n:3 ~flips:5 ~gap_ms:100 ~seed:(seed + 100));
  }

let beyond_f ?(algo = Register Algo.Abd) ~seed ~heal_at_ms ~outage_ops () =
  {
    (base ~seed) with
    name = "beyond-f" ^ algo_suffix algo;
    descr =
      Fmt.str
        "cut the clients down to a single reachable server (beyond f=1): \
         operations must fail fast with Unavailable, then resume after the \
         heal (%s)"
        (algo_name algo);
    algo;
    expect = Degraded;
    phases =
      one_phase ~label:"warmup" ~writes:4 ~reads:4 ~gap_ms:15 []
      @ one_phase ~may_fail:true ~label:"outage" ~writes:outage_ops
          ~reads:outage_ops ~gap_ms:40
          (Schedule.beyond_f ~n:3 ~reach:1 ~at_ms:50 ~heal_at_ms)
      @ one_phase ~label:"recovered" ~writes:4 ~reads:4 ~gap_ms:15 [];
  }

let amnesia ?(algo = Register Algo.Abd) ~seed ~ops () =
  {
    (base ~seed) with
    name = "amnesia" ^ algo_suffix algo;
    descr =
      Fmt.str
        "diskless rolling reboot of every server (never more than one down \
         at once) erases all state: stale reads must be flagged by the \
         WS-Regularity checker (%s)"
        (algo_name algo);
    algo;
    recovery = Recovery.Amnesia;
    expect = Violation;
    phases =
      one_phase ~label:"writes" ~writes:ops ~reads:0 ~gap_ms:15 []
      @ one_phase ~label:"wipe" ~writes:0 ~reads:0 ~gap_ms:0
          (Schedule.wipe_all ~n:3 ~start_ms:30 ~gap_ms:80 ())
      @ one_phase ~label:"stale-reads" ~writes:0 ~reads:ops ~gap_ms:15 [];
  }

(* --- gray-failure scenarios --------------------------------------------- *)

let one_straggler ?(algo = Register Algo.Abd) ~seed ~slow_us ~ops () =
  {
    (base ~seed) with
    name = "one-straggler" ^ algo_suffix algo;
    descr =
      Fmt.str
        "one server's link turns gray (+%dus per message) mid-workload: \
         hedged quorum rounds must keep every operation completing at \
         healthy-replica speed (%s)"
        slow_us (algo_name algo);
    algo;
    hedge = true;
    phases =
      one_phase ~label:"straggle" ~writes:ops ~reads:ops ~gap_ms:30
        (Schedule.one_straggler ~n:3 ~server:2 ~slow_us ~at_ms:60
           ~heal_at_ms:900);
  }

let rotating_straggler ~seed ~slow_us ~ops =
  {
    (base ~seed) with
    name = "rotating-straggler";
    descr =
      "the slowdown wanders: each server takes a turn as the gray \
       straggler, so no fixed replica subset is safe — the adaptive \
       deadline and health-biased hedging must keep adapting";
    hedge = true;
    phases =
      one_phase ~label:"rotate" ~writes:ops ~reads:ops ~gap_ms:30
        (Schedule.rotating_straggler ~n:3 ~slow_us ~start_ms:40 ~dwell_ms:250
           ());
  }

(* one server crashed (the full f budget) while another limps: still
   within the model — the slow server is alive, so a quorum of f+1
   exists — but every round must now wait out or hedge around the
   straggler *)
let straggler_at_f ~seed ~slow_us ~ops =
  {
    (base ~seed) with
    name = "straggler-at-f";
    descr =
      "a crash spends the whole f=1 budget while a second server turns \
       gray: the quorum that remains includes the straggler, so only \
       patience (adaptive deadlines) keeps operations completing";
    hedge = true;
    phases =
      one_phase ~label:"squeeze" ~writes:ops ~reads:ops ~gap_ms:40
        [
          { Schedule.at_ms = 40; ev = Schedule.Slow (1, slow_us) };
          { at_ms = 80; ev = Schedule.Crash 0 };
          { at_ms = 700; ev = Schedule.Restart 0 };
          { at_ms = 800; ev = Schedule.Heal_slow 1 };
        ];
  }

let keyspace_outage ~seed ~heal_at_ms ~outage_ops =
  {
    (base ~seed) with
    name = "keyspace-outage";
    descr =
      "cut the clients off from key 0's replica set beyond f: keyed \
       operations must fail fast with Unavailable, then resume after \
       the heal — the keyed retry path under partition";
    algo = Keyed;
    expect = Degraded;
    phases =
      one_phase ~label:"warmup" ~writes:4 ~reads:4 ~gap_ms:15 []
      @ one_phase ~may_fail:true ~label:"outage" ~writes:outage_ops
          ~reads:outage_ops ~gap_ms:40
          (Schedule.beyond_f ~n:3 ~reach:1 ~at_ms:50 ~heal_at_ms)
      @ one_phase ~label:"recovered" ~writes:4 ~reads:4 ~gap_ms:15 [];
  }

let campaign ~seed =
  let alg2 = Register Algo.Alg2 and cds = Register Algo.Cds in
  [
    rolling_crashes ~seed ~algo:(Register Algo.Abd) ~rounds:2 ~ops:12;
    rolling_crashes ~seed:(seed + 1) ~algo:alg2 ~rounds:1 ~ops:10;
    majority_partition ~seed:(seed + 2) ();
    flapping ~seed:(seed + 3) ();
    beyond_f ~seed:(seed + 4) ~heal_at_ms:1500 ~outage_ops:5 ();
    amnesia ~seed:(seed + 5) ~ops:8 ();
    one_straggler ~seed:(seed + 6) ~slow_us:5_000 ~ops:10 ();
    rotating_straggler ~seed:(seed + 7) ~slow_us:4_000 ~ops:10;
    straggler_at_f ~seed:(seed + 8) ~slow_us:3_000 ~ops:8;
    keyspace_outage ~seed:(seed + 9) ~heal_at_ms:1500 ~outage_ops:5;
    (* the CDS arms: the rival emulation through the same nemeses,
       including the two model-edge scenarios (beyond-f, amnesia) *)
    rolling_crashes ~seed:(seed + 10) ~algo:cds ~rounds:1 ~ops:10;
    majority_partition ~algo:cds ~seed:(seed + 11) ();
    flapping ~algo:cds ~seed:(seed + 12) ();
    beyond_f ~algo:cds ~seed:(seed + 13) ~heal_at_ms:1500 ~outage_ops:5 ();
    amnesia ~algo:cds ~seed:(seed + 14) ~ops:8 ();
    one_straggler ~algo:cds ~seed:(seed + 15) ~slow_us:5_000 ~ops:10 ();
  ]

let smoke ~seed =
  let cds = Register Algo.Cds in
  [
    rolling_crashes ~seed ~algo:(Register Algo.Abd) ~rounds:1 ~ops:8;
    beyond_f ~seed:(seed + 4) ~heal_at_ms:800 ~outage_ops:3 ();
    amnesia ~seed:(seed + 5) ~ops:5 ();
    one_straggler ~seed:(seed + 6) ~slow_us:4_000 ~ops:6 ();
    keyspace_outage ~seed:(seed + 9) ~heal_at_ms:800 ~outage_ops:3;
    rolling_crashes ~seed:(seed + 10) ~algo:cds ~rounds:1 ~ops:8;
    amnesia ~algo:cds ~seed:(seed + 14) ~ops:5 ();
  ]

let names () = List.map (fun s -> s.name) (campaign ~seed:0)

let by_name ~seed name =
  List.find_opt (fun s -> s.name = name) (campaign ~seed)

(* One trace may span every scenario (recorders are per-run, so thread
   names repeat across scenarios), but a metrics registry must be
   per-run — names register once — so only a trace threads here. *)
let run_all ?log ?trace scenarios =
  let sink =
    match trace with None -> Sink.none | Some tr -> Sink.make ~trace:tr ()
  in
  List.map (run ?log ~sink) scenarios

(* --- reporting ---------------------------------------------------------- *)

let phase_outcome_pp ppf p =
  Fmt.pf ppf "%s: %d/%d ops, %d unavailable%s (%a)" p.p_label p.completed
    p.expected p.failed
    (if p.failed > 0 then Fmt.str " (slowest fail %.2fs)" p.max_unavail_s
     else "")
    Nemesis.counters_pp p.nemesis

let outcome_pp ppf o =
  let s = o.scenario in
  Fmt.pf ppf "%-20s %-10s %s/%s expect=%-9s %.2fs %s%a"
    s.name (algo_name s.algo)
    (Recovery.to_string s.recovery)
    (Fmt.str "f=%d,n=%d" s.f s.n)
    (expectation_name s.expect) o.wall_s
    (if o.pass then "PASS" else "FAIL")
    Fmt.(option (fun ppf m -> Fmt.pf ppf " — %s" m))
    o.failure

let phase_json (p : phase) po =
  Json.Obj
    [
      ("label", Json.Str po.p_label);
      ("writes_per_writer", Json.Int p.writes_per_writer);
      ("reads_per_reader", Json.Int p.reads_per_reader);
      ("may_fail", Json.Bool p.may_fail);
      ("schedule", Schedule.to_json p.schedule);
      ("expected_ops", Json.Int po.expected);
      ("completed", Json.Int po.completed);
      ("unavailable", Json.Int po.failed);
      ("max_unavailable_s", Json.Float po.max_unavail_s);
      ("nemesis", Nemesis.counters_json po.nemesis);
    ]

let outcome_json o =
  let s = o.scenario in
  let stats = o.stats in
  Json.Obj
    [
      ("name", Json.Str s.name);
      ("descr", Json.Str s.descr);
      ("algo", Json.Str (algo_name s.algo));
      ("writers", Json.Int s.k);
      ("readers", Json.Int s.readers);
      ("f", Json.Int s.f);
      ("n", Json.Int s.n);
      ("recovery", Json.Str (Recovery.to_string s.recovery));
      ("drop_prob", Json.Float s.drop_prob);
      ("dup_prob", Json.Float s.dup_prob);
      ("delay_prob", Json.Float s.delay_prob);
      ("hedge", Json.Bool s.hedge);
      ("seed", Json.Int s.seed);
      ("expect", Json.Str (expectation_name s.expect));
      ( "phases",
        (* empty when the run aborted before completing its phases *)
        if List.length o.phases = List.length s.phases then
          Json.List (List.map2 phase_json s.phases o.phases)
        else Json.List [] );
      ( "msgs",
        Json.Obj
          [
            ("sent", Json.Int stats.Cluster.msgs_sent);
            ("delivered", Json.Int stats.Cluster.msgs_delivered);
            ("duplicated", Json.Int stats.Cluster.msgs_duplicated);
            ("delayed", Json.Int stats.Cluster.msgs_delayed);
            ("dropped", Json.Int stats.Cluster.msgs_dropped);
            ("cut", Json.Int stats.Cluster.msgs_cut);
            ("slowed", Json.Int stats.Cluster.msgs_slowed);
          ] );
      ("crashes", Json.Int stats.Cluster.crashes);
      ("restarts", Json.Int stats.Cluster.restarts);
      ("wipes", Json.Int stats.Cluster.wipes);
      ("retries", Json.Int stats.Cluster.retries);
      ("hedges", Json.Int stats.Cluster.hedges);
      ("hedge_wins", Json.Int stats.Cluster.hedge_wins);
      ("unavailable", Json.Int stats.Cluster.unavailable);
      ("ops_completed", Json.Int stats.Cluster.ops_completed);
      ( "backoff_hist_ms",
        Json.List
          (List.map
             (fun (le_ms, count) ->
               Json.Obj
                 [
                   ( "le_ms",
                     if le_ms = max_int then Json.Null else Json.Int le_ms );
                   ("count", Json.Int count);
                 ])
             o.backoff_ms) );
      ("online_checks", Json.Int o.check.Checker.checks);
      ("ops_checked", Json.Int o.check.Checker.ops_checked);
      ( "ws_regular",
        Json.Str
          (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp o.check.Checker.ws)
      );
      ("checker_ok", Json.Bool (Checker.ok o.check));
      ("wall_s", Json.Float o.wall_s);
      ("pass", Json.Bool o.pass);
      ( "failure",
        match o.failure with None -> Json.Null | Some m -> Json.Str m );
    ]

let all_pass outcomes = List.for_all (fun o -> o.pass) outcomes

let to_json ~seed ~smoke outcomes =
  Json.Obj
    [
      ("schema", Json.Str "regemu-chaos/1");
      ("seed", Json.Int seed);
      ("smoke", Json.Bool smoke);
      ("scenarios", Json.List (List.map outcome_json outcomes));
      ("pass", Json.Bool (all_pass outcomes));
    ]
