(* Behaviour oracles for the emulations: fixed-seed fingerprints of
   every registry algorithm under the deterministic scheduler
   (Dst.run_digest), of every wire protocol on the simulated network
   (history MD5 plus delivered-message count), and of the shared-memory
   emulations on the simulator (trace MD5 plus object count).

   The values were recorded before the algorithms were rewritten as one
   functor each over Net and Cluster; any change to the order of
   messages, request ids, or scheduling points shows up here first.
   Configs are built through the JSON config reader so this file names
   algorithms only by their registry strings. *)

open Regemu_history
open Regemu_netsim
open Regemu_dst
module Json = Regemu_obs.Json

let test name f = Alcotest.test_case name `Quick f

(* --- DST digests ---------------------------------------------------------- *)

let dst_config ~algo ~writers ~readers ~n ~quiet ~seed =
  let set k v fields =
    List.map (fun (k', v') -> if k = k' then (k, v) else (k', v')) fields
  in
  let base = Dst.default_config ~seed in
  let fields =
    match Dst.config_json base with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "config_json is not an object"
  in
  let fields =
    set "algo" (Json.Str algo) fields
    |> set "writers" (Json.Int writers)
    |> set "readers" (Json.Int readers)
    |> set "n" (Json.Int n)
  in
  let fields =
    if quiet then
      set "drop_prob" (Json.Float 0.0) fields
      |> set "dup_prob" (Json.Float 0.0)
    else fields
  in
  match Dst.config_of_json (Json.Obj fields) with
  | Ok base ->
      Dst_fuzz.config_for
        (if quiet then Dst_fuzz.Quiet else Dst_fuzz.Chaos)
        ~base ~seed
  | Error m -> Alcotest.failf "config_of_json: %s" m

(* the schedule digest counts scheduler steps, not messages, so two
   algorithms with the same quorum shape can share it; the message
   totals tell them apart *)
let dst_fingerprint (o : Dst.outcome) =
  match o.stats with
  | None -> Dst.run_digest o
  | Some s ->
      Fmt.str "%s/%d/%d" (Dst.run_digest o) s.cluster_stats.msgs_sent
        s.cluster_stats.msgs_delivered

(* (algo, profile, expected "run_digest/sent/delivered") *)
let dst_goldens =
  [
    ("abd", `Quiet, "3160a5c22cf162db-98f14e0889b5dd71/192/192");
    ("abd", `Chaos, "e86fc82ebb382c8b-013bb12ffe7ac6ae/258/258");
    ("abd-wb", `Quiet, "92128e3d44c574ae-e042ff6f68a78a5b/288/287");
    ("abd-wb", `Chaos, "10854f754e3795bd-14338f2996ec2371/309/309");
    ("algorithm2", `Quiet, "3160a5c22cf162db-98f14e0889b5dd71/192/192");
    ("algorithm2", `Chaos, "877a95714bceed69-2d6f2b3bee957ef3/404/404");
    ("cds", `Quiet, "3160a5c22cf162db-98f14e0889b5dd71/192/192");
    ("cds", `Chaos, "e86fc82ebb382c8b-013bb12ffe7ac6ae/258/258");
  ]

let dst_tests =
  List.map
    (fun (algo, profile, expected) ->
      let quiet = profile = `Quiet in
      test
        (Fmt.str "dst digest: %s %s" algo (if quiet then "quiet" else "chaos"))
        (fun () ->
          let cfg =
            if quiet then
              dst_config ~algo ~writers:1 ~readers:2 ~n:4 ~quiet ~seed:101
            else dst_config ~algo ~writers:2 ~readers:1 ~n:3 ~quiet ~seed:202
          in
          Alcotest.(check string)
            "fingerprint" expected
            (dst_fingerprint (Dst.run cfg))))
    dst_goldens

(* --- Net fingerprints ----------------------------------------------------- *)

let naive_alg2 =
  {
    Net_scenario.name = "alg2-net-naive";
    make =
      (fun net p ~writers ->
        let t = Alg2_net.create net p ~naive:true ~writers () in
        (Alg2_net.write t, Alg2_net.read t));
  }

let fingerprint (r : Net_scenario.result) =
  let ops = List.map (Fmt.str "%a" History.op_pp) r.history in
  Fmt.str "%s/%d"
    (Digest.to_hex (Digest.string (String.concat "\n" ops)))
    (Net.delivered r.net)

let p_net = Regemu_bounds.Params.make_exn ~k:2 ~f:1 ~n:4

(* (protocol, scenario, expected "md5/delivered") *)
let net_goldens =
  [
    ( Net_scenario.abd ~write_back:false,
      `Seq,
      "093cc4b2f98d4f227434b7f8c163b414/60" );
    ( Net_scenario.abd ~write_back:false,
      `Conc,
      "104d99bdd3e1ef9e9301d49fce9f63fc/82" );
    ( Net_scenario.abd ~write_back:true,
      `Seq,
      "4f8edca5bc1ebd243bb3a0c4c6ca91ad/76" );
    ( Net_scenario.abd ~write_back:true,
      `Conc,
      "93dc8e1c2ff27e4d266796d9d7e330fa/84" );
    ( Net_scenario.alg2,
      `Seq,
      "98a99041ebc6feaacd521c5ff375cc65/77" );
    ( Net_scenario.alg2,
      `Conc,
      "85dc952b697534b0ca3961d03e3d8789/82" );
    ( naive_alg2,
      `Seq,
      "093cc4b2f98d4f227434b7f8c163b414/60" );
    ( naive_alg2,
      `Conc,
      "104d99bdd3e1ef9e9301d49fce9f63fc/82" );
  ]

let net_tests =
  List.map
    (fun (protocol, scenario, expected) ->
      let label =
        match scenario with `Seq -> "sequential" | `Conc -> "concurrent"
      in
      test
        (Fmt.str "net fingerprint: %s %s" protocol.Net_scenario.name label)
        (fun () ->
          let r =
            match scenario with
            | `Seq ->
                Net_scenario.write_sequential ~protocol ~p:p_net ~rounds:2
                  ~crashes:1 ~duplication:true ~seed:31 ()
            | `Conc ->
                Net_scenario.concurrent_reads ~protocol ~p:p_net ~rounds:2
                  ~readers:2 ~crashes:1 ~duplication:true ~seed:47 ()
          in
          match r with
          | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
          | Ok r ->
              Alcotest.(check string)
                "md5/delivered" expected (fingerprint r)))
    net_goldens

(* --- Sim fingerprints ----------------------------------------------------- *)

(* Fixed-seed runs of the shared-memory emulations on the simulator
   under the random policy: the MD5 of the printed trace (every
   trigger, respond, invoke and return, with object and operation ids)
   plus the object count the construction allocated.  Any change to the
   order in which an emulation allocates objects or triggers low-level
   operations shows here. *)

module Sim = Regemu_sim.Sim
module Trace = Regemu_sim.Trace
module Rng = Regemu_sim.Rng
module Policy = Regemu_sim.Policy
module Driver = Regemu_sim.Driver
module Scenario = Regemu_workload.Scenario
module Value = Regemu_objects.Value

let sim_fingerprint sim ~objects =
  Fmt.str "%s/%d"
    (Digest.to_hex (Digest.string (Fmt.str "%a" Trace.pp (Sim.trace sim))))
    objects

let p_sim = Regemu_bounds.Params.make_exn ~k:3 ~f:1 ~n:4

let scenario_fingerprint (factory : Regemu_core.Emulation.factory) scenario =
  let r =
    match scenario with
    | `Seq ->
        Scenario.write_sequential factory p_sim ~read_after_each:true
          ~rounds:2 ~seed:31 ()
    | `Conc ->
        Scenario.concurrent_reads factory p_sim ~rounds:2 ~readers:2
          ~crashes:1 ~seed:47 ()
    | `Chaos ->
        Scenario.chaos factory p_sim ~writes_per_writer:2 ~readers:2
          ~reads_per_reader:2 ~crashes:1 ~seed:59 ()
    | `Held ->
        (* responses held back for a while and no crash: writes from an
           older quorum write are still pending when the writer's next
           write starts and respond later, so Algorithm 2's re-sends of
           covered registers show *)
        Scenario.concurrent_reads factory p_sim
          ~policy:(fun rng ->
            Policy.procrastinating rng ~hold_percent:30 ~hold_steps:200)
          ~rounds:3 ~readers:2 ~crashes:0 ~seed:71 ()
  in
  match r with
  | Error e -> Alcotest.failf "%a" Scenario.error_pp e
  | Ok r ->
      sim_fingerprint r.sim
        ~objects:(List.length (r.instance.Regemu_core.Emulation.objects ()))

(* Algorithm 2 with reader write-back has no factory (its readers need
   slots): sequential writes, reads at random moments, one crash *)
let rwb_fingerprint ~seed =
  let p = Regemu_bounds.Params.make_exn ~k:2 ~f:1 ~n:4 in
  let sim = Sim.create ~n:4 () in
  let writers = List.init 2 (fun _ -> Sim.new_client sim) in
  let readers = List.init 2 (fun _ -> Sim.new_client sim) in
  let t = Regemu_baselines.Algorithm2_rwb.create sim p ~writers ~readers in
  let rng = Rng.create seed in
  let policy = Policy.uniform (Rng.split rng) in
  let reads = ref [] in
  let maybe_read () =
    if Rng.int rng ~bound:6 = 0 then
      match List.filter (fun c -> not (Sim.client_busy sim c)) readers with
      | [] -> ()
      | idle ->
          reads :=
            Regemu_baselines.Algorithm2_rwb.read t (Rng.pick rng idle)
            :: !reads
  in
  List.iteri
    (fun i w ->
      if i = 2 then Sim.crash_server sim (Regemu_objects.Id.Server.of_int 1);
      let call = Regemu_baselines.Algorithm2_rwb.write t w (Value.Int i) in
      let rec drive budget =
        if budget = 0 then Alcotest.fail "write stalled";
        if not (Sim.call_returned call) then begin
          maybe_read ();
          ignore (Driver.step sim policy);
          drive (budget - 1)
        end
      in
      drive 100_000)
    (writers @ writers);
  (match
     Driver.run_until sim policy ~budget:200_000 (fun () ->
         List.for_all Sim.call_returned !reads)
   with
  | Driver.Satisfied -> ()
  | o -> Alcotest.failf "drain: %a" Driver.outcome_pp o);
  sim_fingerprint sim
    ~objects:(List.length (Regemu_baselines.Algorithm2_rwb.objects t))

let factory_of = function
  | "algorithm2" -> Regemu_core.Algorithm2.factory
  | "abd-max" -> Regemu_baselines.Abd_max.factory
  | "abd-max-atomic" -> Regemu_baselines.Abd_max_atomic.factory
  | a -> Alcotest.failf "no factory %s" a

(* (algo, scenario, expected "md5/objects") *)
let sim_goldens =
  [
    ("algorithm2", `Seq, "77907fbaad94e4e1ea9917208b6283f2/7");
    ("algorithm2", `Conc, "58e15002a2179c705a2d579ab9093800/7");
    ("algorithm2", `Chaos, "c6c5ff2bbae99f1141a1cc84f2f70847/7");
    ("algorithm2", `Held, "03bc85194508eebb9c57c3715c0e2eb7/7");
    ("abd-max", `Seq, "25ca15554303890388254e0389821d08/3");
    ("abd-max", `Conc, "b1d04159b1401626d28034789b0b7ba4/3");
    ("abd-max", `Chaos, "6832bbfc642b7423b679e12805c0d5f3/3");
    ("abd-max-atomic", `Seq, "be121b0511e21570dda634f56f2e6865/3");
    ("abd-max-atomic", `Conc, "be0a392e2748bbfd4a564f6c5128b3ca/3");
    ("abd-max-atomic", `Chaos, "af1b799ea8eb3a9c3849616868fb2f1a/3");
    ("abd-max-atomic", `Held, "43abb927ca6f5c564a5ef73a04f08da2/3");
    ("algorithm2-rwb", `Seed 7, "e44705e5b8628c32ee2cd33755b462c9/8");
    ("algorithm2-rwb", `Seed 8, "8908592e0e4ce58ac1f0e16d435a9a1f/8");
  ]

let sim_tests =
  List.map
    (fun (algo, scenario, expected) ->
      let label =
        match scenario with
        | `Seq -> "sequential"
        | `Conc -> "concurrent"
        | `Chaos -> "chaos"
        | `Held -> "held responses"
        | `Seed s -> Fmt.str "seed %d" s
      in
      test (Fmt.str "sim fingerprint: %s %s" algo label) (fun () ->
          let got =
            match scenario with
            | `Seed seed -> rwb_fingerprint ~seed
            | (`Seq | `Conc | `Chaos | `Held) as sc ->
                scenario_fingerprint (factory_of algo) sc
          in
          Alcotest.(check string) "md5/objects" expected got))
    sim_goldens

let suites =
  [
    ("golden:dst", dst_tests);
    ("golden:net", net_tests);
    ("golden:sim", sim_tests);
  ]

