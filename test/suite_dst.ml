(* Tests for the deterministic-schedule testing stack: the virtual
   scheduler, the simulation harness, the fuzzer/shrinker, and the
   replay-file round trip. *)

open Regemu_dst

let test name f = Alcotest.test_case name `Quick f

(* --- the scheduler itself ----------------------------------------------- *)

let sched_tests =
  [
    test "one actor runs to completion and returns" (fun () ->
        let r, rep = Sched.run (Sched.default_config ~seed:1) (fun _ -> 42) in
        Alcotest.(check (option int)) "result" (Some 42) r;
        Alcotest.(check bool) "no deadlock" true (rep.Sched.deadlock = None);
        Alcotest.(check bool) "not stalled" false rep.Sched.stalled);
    test "spawned actors all run; suspend waits for them" (fun () ->
        let hits = ref 0 in
        let r, _ =
          Sched.run (Sched.default_config ~seed:7) (fun t ->
              for i = 1 to 5 do
                Sched.spawn t
                  ~name:(Fmt.str "worker-%d" i)
                  (fun () -> incr hits)
              done;
              let hook = Sched.hook t in
              hook.Regemu_live.Sched_hook.suspend (fun () -> !hits = 5);
              !hits)
        in
        Alcotest.(check (option int)) "all workers ran" (Some 5) r);
    test "sleep advances virtual time, not wall time" (fun () ->
        let wall0 = Unix.gettimeofday () in
        let r, rep =
          Sched.run (Sched.default_config ~seed:3) (fun t ->
              let hook = Sched.hook t in
              let t0 = Regemu_live.Clock.now_ns () in
              hook.Regemu_live.Sched_hook.sleep 30.0 (* 30 virtual seconds *);
              Int64.to_float (Int64.sub (Regemu_live.Clock.now_ns ()) t0)
              *. 1e-9)
        in
        let wall = Unix.gettimeofday () -. wall0 in
        (match r with
        | None -> Alcotest.fail "run returned no result"
        | Some slept ->
            Alcotest.(check bool)
              "virtual sleep elapsed" true (slept >= 30.0));
        Alcotest.(check bool) "wall time stayed small" true (wall < 5.0);
        Alcotest.(check bool)
          "virtual clock in the report" true
          (rep.Sched.vtime_ns > 30_000_000_000L));
    test "identical seeds give identical digests" (fun () ->
        let program t =
          let counter = ref 0 in
          for i = 1 to 4 do
            Sched.spawn t ~name:(Fmt.str "w%d" i) (fun () ->
                let hook = Sched.hook t in
                hook.Regemu_live.Sched_hook.sleep 0.001;
                incr counter)
          done;
          let hook = Sched.hook t in
          hook.Regemu_live.Sched_hook.suspend (fun () -> !counter = 4)
        in
        let _, r1 = Sched.run (Sched.default_config ~seed:11) program in
        let _, r2 = Sched.run (Sched.default_config ~seed:11) program in
        let _, r3 = Sched.run (Sched.default_config ~seed:12) program in
        Alcotest.(check string) "same seed, same digest" r1.Sched.digest
          r2.Sched.digest;
        Alcotest.(check bool)
          "different seed, different digest" true
          (r1.Sched.digest <> r3.Sched.digest));
    test "replaying the recorded choices reproduces the digest" (fun () ->
        let program t =
          let left = ref 3 in
          for i = 1 to 3 do
            Sched.spawn t ~name:(Fmt.str "a%d" i) (fun () -> decr left)
          done;
          let hook = Sched.hook t in
          hook.Regemu_live.Sched_hook.suspend (fun () -> !left = 0)
        in
        let _, r1 = Sched.run (Sched.default_config ~seed:5) program in
        let _, r2 =
          Sched.run ~replay:r1.Sched.choices
            (Sched.default_config ~seed:999 (* ignored where trace covers *))
            program
        in
        Alcotest.(check string) "digest reproduced" r1.Sched.digest
          r2.Sched.digest);
    test "a wedged run is reported as a deadlock, with actor names" (fun () ->
        let r, rep =
          Sched.run (Sched.default_config ~seed:2) (fun t ->
              Sched.spawn t ~name:"stuck" (fun () ->
                  let hook = Sched.hook t in
                  hook.Regemu_live.Sched_hook.suspend (fun () -> false));
              let hook = Sched.hook t in
              (* no timeout, never true: the whole run is wedged *)
              hook.Regemu_live.Sched_hook.suspend (fun () -> false);
              0)
        in
        Alcotest.(check (option int)) "no result" None r;
        match rep.Sched.deadlock with
        | None -> Alcotest.fail "deadlock not detected"
        | Some names ->
            Alcotest.(check bool)
              "stuck actor named" true
              (List.mem "stuck" names));
    test "max_steps turns a livelock into a stall report" (fun () ->
        let cfg = { (Sched.default_config ~seed:4) with Sched.max_steps = 50 } in
        let _, rep =
          Sched.run cfg (fun t ->
              let hook = Sched.hook t in
              (* a 1ms-timeout suspend loop never makes progress *)
              let rec spin n =
                if n = 0 then ()
                else begin
                  hook.Regemu_live.Sched_hook.suspend ~timeout_s:0.001
                    (fun () -> false);
                  spin (n - 1)
                end
              in
              spin 1_000_000)
        in
        Alcotest.(check bool) "stalled" true rep.Sched.stalled);
    test "suspend timeout fires on the virtual clock" (fun () ->
        let r, _ =
          Sched.run (Sched.default_config ~seed:6) (fun t ->
              let hook = Sched.hook t in
              let t0 = Regemu_live.Clock.now_ns () in
              hook.Regemu_live.Sched_hook.suspend ~timeout_s:2.0 (fun () ->
                  false);
              Int64.to_float (Int64.sub (Regemu_live.Clock.now_ns ()) t0)
              *. 1e-9)
        in
        match r with
        | None -> Alcotest.fail "no result"
        | Some waited ->
            Alcotest.(check bool) "timeout elapsed virtually" true
              (waited >= 2.0 && waited < 60.0));
    (* a little program with real branch points, for the replay
       edge-case tests below *)
    (let branchy t =
       let left = ref 4 in
       for i = 1 to 4 do
         Sched.spawn t ~name:(Fmt.str "b%d" i) (fun () -> decr left)
       done;
       let hook = Sched.hook t in
       hook.Regemu_live.Sched_hook.suspend (fun () -> !left = 0);
       !left
     in
     test "an empty replay trace behaves exactly like no trace" (fun () ->
         let _, bare = Sched.run (Sched.default_config ~seed:21) branchy in
         let r, rep =
           Sched.run ~replay:[||] (Sched.default_config ~seed:21) branchy
         in
         Alcotest.(check (option int)) "completes" (Some 0) r;
         Alcotest.(check string) "PRNG takes over from step one"
           bare.Sched.digest rep.Sched.digest;
         Alcotest.(check int) "nothing clamped" 0 rep.Sched.replay_clamped;
         Alcotest.(check int) "nothing left over" 0 rep.Sched.replay_unused));
    (let branchy t =
       let left = ref 4 in
       for i = 1 to 4 do
         Sched.spawn t ~name:(Fmt.str "b%d" i) (fun () -> decr left)
       done;
       let hook = Sched.hook t in
       hook.Regemu_live.Sched_hook.suspend (fun () -> !left = 0);
       !left
     in
     test "a too-long replay trace completes and reports the leftovers"
       (fun () ->
         let _, short = Sched.run (Sched.default_config ~seed:22) branchy in
         let padded =
           Array.append short.Sched.choices (Array.make 50 0)
         in
         let r, rep =
           Sched.run ~replay:padded (Sched.default_config ~seed:22) branchy
         in
         Alcotest.(check (option int)) "completes cleanly" (Some 0) r;
         Alcotest.(check bool) "no deadlock" true (rep.Sched.deadlock = None);
         Alcotest.(check bool) "not stalled" false rep.Sched.stalled;
         Alcotest.(check string) "prefix still steers the run"
           short.Sched.digest rep.Sched.digest;
         Alcotest.(check bool) "unused tail reported" true
           (rep.Sched.replay_unused > 0)));
    (let branchy t =
       let left = ref 4 in
       for i = 1 to 4 do
         Sched.spawn t ~name:(Fmt.str "b%d" i) (fun () -> decr left)
       done;
       let hook = Sched.hook t in
       hook.Regemu_live.Sched_hook.suspend (fun () -> !left = 0);
       !left
     in
     test "out-of-range replay values fold in range and are counted"
       (fun () ->
         let _, base = Sched.run (Sched.default_config ~seed:23) branchy in
         Alcotest.(check bool) "the program really branches" true
           (Array.length base.Sched.choices > 0);
         (* huge and negative values both fold back modulo the width *)
         let wild =
           Array.map
             (fun v -> if v mod 2 = 0 then v + 1_000_000 else v - 1_000_000)
             base.Sched.choices
         in
         let r, rep =
           Sched.run ~replay:wild (Sched.default_config ~seed:23) branchy
         in
         Alcotest.(check (option int)) "completes cleanly" (Some 0) r;
         Alcotest.(check bool) "no deadlock" true (rep.Sched.deadlock = None);
         Alcotest.(check bool) "clamps counted" true
           (rep.Sched.replay_clamped > 0);
         Alcotest.(check int) "every choice consumed" 0
           rep.Sched.replay_unused));
  ]

(* --- whole-run determinism ----------------------------------------------- *)

let determinism_tests =
  [
    test "same config twice: byte-identical run digests" (fun () ->
        let cfg = Dst.default_config ~seed:21 in
        let o1 = Dst.run cfg and o2 = Dst.run cfg in
        Alcotest.(check string) "digest" (Dst.run_digest o1)
          (Dst.run_digest o2);
        Alcotest.(check bool) "clean" true (Dst.passed o1));
    test "different seeds diverge" (fun () ->
        let o1 = Dst.run (Dst.default_config ~seed:22) in
        let o2 = Dst.run (Dst.default_config ~seed:23) in
        Alcotest.(check bool) "digests differ" true
          (Dst.run_digest o1 <> Dst.run_digest o2));
    test "replaying the recorded interleaving reproduces the run" (fun () ->
        let cfg = Dst.default_config ~seed:24 in
        let o1 = Dst.run cfg in
        let o2 = Dst.run ~choices:o1.Dst.report.Sched.choices cfg in
        Alcotest.(check string) "digest" (Dst.run_digest o1)
          (Dst.run_digest o2));
    test "all three protocols run clean under the virtual scheduler"
      (fun () ->
        List.iter
          (fun algo ->
            let cfg = { (Dst.default_config ~seed:25) with Dst.algo } in
            let o = Dst.run cfg in
            Alcotest.(check bool)
              (Fmt.str "%s clean" (Regemu_live.Algo.name algo))
              true (Dst.passed o))
          [
            Regemu_live.Algo.Abd;
            Regemu_live.Algo.Abd_wb;
            Regemu_live.Algo.Alg2;
          ]);
  ]

(* --- gray faults + hedging under the virtual scheduler ------------------- *)

(* a run with a straggler, a stutter burst, and the hedge/deadline
   defenses armed: every hedge decision must be a deterministic
   function of (config, choices) *)
let gray_cfg ~seed =
  {
    (Dst.default_config ~seed) with
    Dst.hedge = true;
    nemesis =
      [
        { Regemu_chaos.Schedule.at_ms = 2;
          ev = Regemu_chaos.Schedule.Slow (1, 5000) };
        { Regemu_chaos.Schedule.at_ms = 8;
          ev = Regemu_chaos.Schedule.Stutter (2, 10) };
        { Regemu_chaos.Schedule.at_ms = 40;
          ev = Regemu_chaos.Schedule.Heal_slow 1 };
      ];
  }

let hedge_stats o =
  match o.Dst.stats with
  | None -> Alcotest.fail "gray run never reached its end"
  | Some s ->
      ( s.Dst.cluster_stats.Regemu_live.Cluster.hedges,
        s.Dst.cluster_stats.Regemu_live.Cluster.hedge_wins,
        s.Dst.cluster_stats.Regemu_live.Cluster.msgs_slowed,
        s.Dst.nemesis_counters )

let gray_determinism_tests =
  [
    test "hedge decisions replay byte-identically from the seed" (fun () ->
        let cfg = gray_cfg ~seed:31 in
        let o1 = Dst.run cfg and o2 = Dst.run cfg in
        Alcotest.(check bool) "clean" true (Dst.passed o1);
        Alcotest.(check string) "digest" (Dst.run_digest o1)
          (Dst.run_digest o2);
        let h1, w1, sl1, nem1 = hedge_stats o1 in
        let h2, w2, sl2, nem2 = hedge_stats o2 in
        Alcotest.(check int) "hedges" h1 h2;
        Alcotest.(check int) "hedge wins" w1 w2;
        Alcotest.(check int) "slowed envelopes" sl1 sl2;
        Alcotest.(check bool) "nemesis counters" true (nem1 = nem2);
        Alcotest.(check int) "the straggler was applied" 1
          nem1.Regemu_chaos.Nemesis.slows;
        Alcotest.(check int) "the stutter was applied" 1
          nem1.Regemu_chaos.Nemesis.stutters;
        Alcotest.(check int) "the heal was applied" 1
          nem1.Regemu_chaos.Nemesis.heal_slows;
        Alcotest.(check bool) "the slow link held envelopes" true (sl1 > 0));
    test "a recorded gray interleaving replays its hedge decisions"
      (fun () ->
        let cfg = gray_cfg ~seed:32 in
        let o1 = Dst.run cfg in
        let o2 = Dst.run ~choices:o1.Dst.report.Sched.choices cfg in
        Alcotest.(check string) "digest" (Dst.run_digest o1)
          (Dst.run_digest o2);
        Alcotest.(check bool) "hedge counters" true
          (hedge_stats o1 = hedge_stats o2));
    test "traced gray replays are byte-identical" (fun () ->
        let open Regemu_obs in
        let cfg = gray_cfg ~seed:33 in
        let o = Dst.run cfg in
        let traced () =
          let tr = Trace.create () in
          let o' =
            Dst.run ~choices:o.Dst.report.Sched.choices
              ~sink:(Regemu_live.Sink.make ~trace:tr ())
              cfg
          in
          Alcotest.(check string) "digest reproduced" (Dst.run_digest o)
            (Dst.run_digest o');
          Json.to_string (Export.chrome_json tr)
        in
        Alcotest.(check string) "identical trace exports" (traced ())
          (traced ()));
    test "hedging changes the run, gray faults change it again" (fun () ->
        (* hedge on/off and nemesis on/off must all be visible in the
           digest: the flag is doing something, and so is the fault *)
        let base = gray_cfg ~seed:34 in
        let o_gray = Dst.run base in
        let o_nohedge = Dst.run { base with Dst.hedge = false } in
        let o_quiet = Dst.run { base with Dst.nemesis = [] } in
        Alcotest.(check bool) "all clean" true
          (Dst.passed o_gray && Dst.passed o_nohedge && Dst.passed o_quiet);
        Alcotest.(check bool) "hedge flag visible" true
          (Dst.run_digest o_gray <> Dst.run_digest o_nohedge));
  ]

(* --- online checker vs full pass ----------------------------------------- *)

(* the satellite: on 200 fuzzed seeds, the incremental online verdict
   must agree with a from-scratch full-pass check of the final
   history.  [Dst.run] already cross-checks and reports disagreement
   as a violation; here we assert it directly on the stats. *)
let equivalence_tests =
  let agree profile seeds seed0 () =
    let base =
      { (Dst.default_config ~seed:seed0) with Dst.ops_per_client = 4 }
    in
    let report = Dst_fuzz.fuzz ~profile ~base ~seeds () in
    let checked = ref 0 in
    List.iter
      (fun (f : Dst_fuzz.failure) ->
        List.iter
          (fun v ->
            if String.length v >= 20 && String.sub v 0 20 = "checker-disagreement"
            then
              Alcotest.failf "seed %d: online/full divergence: %s"
                f.Dst_fuzz.seed v)
          f.Dst_fuzz.outcome.Dst.violations)
      report.Dst_fuzz.failures;
    (* and positively: every completed run's verdict classes match *)
    let recheck seed =
      let cfg = Dst_fuzz.config_for profile ~base ~seed in
      let o = Dst.run cfg in
      match o.Dst.stats with
      | None -> ()
      | Some s ->
          incr checked;
          Alcotest.(check string)
            (Fmt.str "seed %d verdict class" seed)
            (Dst.verdict_class s.Dst.full_ws)
            (Dst.verdict_class s.Dst.online.Regemu_live.Checker.ws)
    in
    for s = seed0 to seed0 + 9 do
      recheck s
    done;
    Alcotest.(check bool) "rechecked some runs" true (!checked > 0)
  in
  [
    test "online = full pass on 100 quiet seeds" (agree Dst_fuzz.Quiet 100 300);
    test "online = full pass on 60 chaos seeds" (agree Dst_fuzz.Chaos 60 500);
    test "online = full pass on 40 hunt seeds (violations included)"
      (agree Dst_fuzz.Hunt 40 700);
  ]

(* --- fuzzing and shrinking ----------------------------------------------- *)

let find_hunt_failure ~from =
  let base = Dst.default_config ~seed:from in
  let rec go seed limit =
    if limit = 0 then
      Alcotest.fail "no hunt failure found in 12 seeds (storms should bite)"
    else
      let cfg = Dst_fuzz.config_for Dst_fuzz.Hunt ~base ~seed in
      let o = Dst.run cfg in
      if Dst.passed o then go (seed + 1) (limit - 1) else (cfg, o)
  in
  go from 12

let shrink_tests =
  [
    test "ddmin finds the minimal failing subsequence" (fun () ->
        (* failure: contains both 3 and 7 *)
        let result =
          Dst_fuzz.ddmin
            ~test:(fun xs -> List.mem 3 xs && List.mem 7 xs)
            [ 1; 2; 3; 4; 5; 6; 7; 8 ]
        in
        Alcotest.(check (list int)) "exactly the two needed" [ 3; 7 ]
          (List.sort compare result));
    test "ddmin shrinks an input-independent failure to nothing" (fun () ->
        Alcotest.(check (list int))
          "empty" []
          (Dst_fuzz.ddmin ~test:(fun _ -> true) [ 1; 2; 3 ]));
    test "ddmin keeps a single culprit" (fun () ->
        Alcotest.(check (list int))
          "one element" [ 5 ]
          (Dst_fuzz.ddmin ~test:(fun xs -> List.mem 5 xs) [ 1; 5; 9; 13 ]));
    test "quiet fuzzing stays clean" (fun () ->
        let base = Dst.default_config ~seed:60 in
        let r = Dst_fuzz.fuzz ~profile:Dst_fuzz.Quiet ~base ~seeds:10 () in
        Alcotest.(check int) "all passed" 10 r.Dst_fuzz.passed);
    test "hunt failures shrink without changing the failure kind" (fun () ->
        let cfg, o = find_hunt_failure ~from:80 in
        let key = Dst_fuzz.failure_key o in
        let s = Dst_fuzz.shrink ~budget:80 cfg o in
        Alcotest.(check (list string))
          "same violation kinds" key
          (Dst_fuzz.failure_key s.Dst_fuzz.outcome);
        Alcotest.(check bool)
          "no larger than the original" true
          (List.length s.Dst_fuzz.cfg.Dst.nemesis
           <= List.length cfg.Dst.nemesis);
        Alcotest.(check bool)
          "minimized run still fails" false
          (Dst.passed s.Dst_fuzz.outcome));
    test "a shrunk counterexample replays to the recorded verdict" (fun () ->
        let cfg, o = find_hunt_failure ~from:120 in
        let s = Dst_fuzz.shrink ~budget:60 cfg o in
        let spec =
          Dst_fuzz.
            {
              r_cfg = s.cfg;
              r_choices = s.choices;
              r_expected_violations = s.outcome.Dst.violations;
              r_expected_digest = Dst.run_digest s.outcome;
            }
        in
        let r = Dst_fuzz.replay spec in
        Alcotest.(check bool) "reproduced" true (Dst_fuzz.replay_matched r));
  ]

(* --- the regemu-dst/1 replay file ---------------------------------------- *)

let replay_file_tests =
  [
    test "write / read round trip preserves the counterexample" (fun () ->
        let cfg, o = find_hunt_failure ~from:150 in
        let s = Dst_fuzz.shrink ~budget:40 cfg o in
        let path = Filename.temp_file "dst_replay" ".json" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            Dst_fuzz.write_replay path ~cfg:s.Dst_fuzz.cfg
              ~choices:s.Dst_fuzz.choices ~outcome:s.Dst_fuzz.outcome;
            match Dst_fuzz.read_replay path with
            | Error e -> Alcotest.failf "read back: %s" e
            | Ok spec ->
                Alcotest.(check int)
                  "seed" s.Dst_fuzz.cfg.Dst.seed spec.Dst_fuzz.r_cfg.Dst.seed;
                Alcotest.(check int)
                  "nemesis events"
                  (List.length s.Dst_fuzz.cfg.Dst.nemesis)
                  (List.length spec.Dst_fuzz.r_cfg.Dst.nemesis);
                Alcotest.(check (array int))
                  "choice trace" s.Dst_fuzz.choices spec.Dst_fuzz.r_choices;
                Alcotest.(check string)
                  "digest"
                  (Dst.run_digest s.Dst_fuzz.outcome)
                  spec.Dst_fuzz.r_expected_digest;
                let r = Dst_fuzz.replay spec in
                Alcotest.(check bool)
                  "file replays to its recorded verdict" true
                  (Dst_fuzz.replay_matched r)));
    test "parse_replay rejects wrong schemas and junk" (fun () ->
        let open Regemu_obs in
        let reject doc =
          match Dst_fuzz.parse_replay doc with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "accepted a malformed replay document"
        in
        reject (Json.Obj [ ("schema", Json.Str "regemu-bench/1") ]);
        reject (Json.Obj []);
        reject
          (Json.Obj
             [ ("schema", Json.Str "regemu-dst/1"); ("choices", Json.Null) ]));
    test "the committed known-good sample replays exactly" (fun () ->
        let path =
          if Sys.file_exists "dst_replay_sample.json" then
            "dst_replay_sample.json" (* dune runtest cwd *)
          else "test/dst_replay_sample.json" (* repo root *)
        in
        match Dst_fuzz.read_replay path with
        | Error e -> Alcotest.failf "%s: %s" path e
        | Ok spec ->
            let r = Dst_fuzz.replay spec in
            Alcotest.(check bool)
              "digest and violations reproduced" true
              (Dst_fuzz.replay_matched r);
            Alcotest.(check bool)
              "it is a real counterexample" false
              (Dst.passed r.Dst_fuzz.outcome));
    test "config survives a json round trip" (fun () ->
        let cfg =
          {
            (Dst.default_config ~seed:77) with
            Dst.algo = Regemu_live.Algo.Alg2;
            writers = 1;
            readers = 3;
            ops_per_client = 5;
            recovery = Regemu_live.Recovery.Amnesia;
            drop_prob = 0.1;
          }
        in
        match Dst.config_of_json (Dst.config_json cfg) with
        | Error e -> Alcotest.failf "round trip: %s" e
        | Ok cfg' ->
            Alcotest.(check bool)
              "equal (nemesis travels separately)" true
              (cfg' = { cfg with Dst.nemesis = [] }))
  ]

let suites =
  [
    ("dst.sched", sched_tests);
    ("dst.determinism", determinism_tests);
    ("dst.gray", gray_determinism_tests);
    ("dst.equivalence", equivalence_tests);
    ("dst.shrink", shrink_tests);
    ("dst.replayfile", replay_file_tests);
  ]
