(* Tests for the fuzzer and the latency experiment. *)

open Regemu_bounds
open Regemu_workload
open Regemu_harness

let test name f = Alcotest.test_case name `Quick f
let p = Params.make_exn ~k:2 ~f:1 ~n:4

let fuzz_tests =
  [
    test "algorithm2 is clean across all scenarios" (fun () ->
        List.iter
          (fun scenario ->
            let o =
              Fuzz.run Regemu_core.Algorithm2.factory p ~scenario ~runs:15
                ~seed:100 ()
            in
            Alcotest.(check int) "runs" 15 o.runs;
            Alcotest.(check int) "safe" 0 o.ws_safe_violations;
            Alcotest.(check int) "regular" 0 o.ws_regular_violations;
            Alcotest.(check int) "liveness" 0 o.liveness_failures;
            Alcotest.(check (option int)) "no bad seed" None o.first_bad_seed)
          [ Fuzz.Sequential; Fuzz.Concurrent_reads; Fuzz.Chaos ]);
    test "abd-max is clean under chaos" (fun () ->
        let o =
          Fuzz.run Regemu_baselines.Abd_max.factory p ~scenario:Fuzz.Chaos
            ~runs:15 ~seed:7 ()
        in
        Alcotest.(check int) "safe" 0 o.ws_safe_violations;
        Alcotest.(check int) "liveness" 0 o.liveness_failures);
    test "wait-all shows liveness failures once a server crashes" (fun () ->
        (* the Concurrent_reads scenario crashes [seed mod (f+1)] servers;
           with enough runs some run crashes one, and wait-all then hangs *)
        let o =
          Fuzz.run Regemu_baselines.Waitall_reg.factory p
            ~scenario:Fuzz.Concurrent_reads ~runs:20 ~seed:0 ()
        in
        Alcotest.(check bool)
          "some liveness failure" true (o.liveness_failures > 0);
        Alcotest.(check bool) "bad seed reported" true (o.first_bad_seed <> None));
    test "random fuzzing misses what the scripted adversary catches"
      (fun () ->
        (* documents the asymmetry: naive-reg is broken (Violation
           proves it) yet uniform random schedules do not find it *)
        let o =
          Fuzz.run Regemu_baselines.Naive_reg.factory
            (Params.make_exn ~k:2 ~f:1 ~n:3)
            ~scenario:Fuzz.Concurrent_reads ~runs:25 ~seed:3 ()
        in
        Alcotest.(check int) "no violation found" 0
          (o.ws_safe_violations + o.ws_regular_violations);
        match Regemu_adversary.Violation.against_naive ~f:1 with
        | Ok { verdict = Regemu_history.Ws_check.Violated _; _ } -> ()
        | _ -> Alcotest.fail "the scripted adversary must catch it");
    test "the procrastinating policy DOES catch the naive algorithm"
      (fun () ->
        (* holding ~40% of responses for 15 steps recreates the
           release-a-stale-covering-write pattern often enough that a
           modest fuzzing budget finds the Figure 2 violation *)
        let o =
          Fuzz.run Regemu_baselines.Naive_reg.factory
            (Params.make_exn ~k:2 ~f:1 ~n:3)
            ~policy:(fun rng ->
              Regemu_sim.Policy.procrastinating rng ~hold_percent:40
                ~hold_steps:15)
            ~scenario:Fuzz.Sequential ~runs:60 ~seed:0 ()
        in
        Alcotest.(check bool)
          "violations found" true (o.ws_safe_violations > 0);
        Alcotest.(check bool) "seed reported" true (o.first_bad_seed <> None));
    test "algorithm2 survives the procrastinator (it survives anything)"
      (fun () ->
        let o =
          Fuzz.run Regemu_core.Algorithm2.factory
            (Params.make_exn ~k:2 ~f:1 ~n:3)
            ~policy:(fun rng ->
              Regemu_sim.Policy.procrastinating rng ~hold_percent:40
                ~hold_steps:15)
            ~scenario:Fuzz.Sequential ~runs:60 ~seed:0 ()
        in
        Alcotest.(check int) "clean" 0
          (o.ws_safe_violations + o.ws_regular_violations
          + o.liveness_failures));
  ]

let latency_tests =
  [
    test "latency rows cover the standard emulations" (fun () ->
        let rows = Latency.compute p ~rounds:1 in
        let names = List.map (fun (r : Latency.row) -> r.algo) rows in
        List.iter
          (fun expected ->
            Alcotest.(check bool) expected true (List.mem expected names))
          [ "abd-max"; "abd-max-atomic"; "abd-cas"; "algorithm2" ]);
    test "layered included exactly when n = 2f+1" (fun () ->
        let has_layered q =
          List.exists
            (fun (r : Latency.row) -> r.algo = "layered")
            (Latency.compute q ~rounds:1)
        in
        Alcotest.(check bool) "at 2f+1" true
          (has_layered (Params.make_exn ~k:2 ~f:1 ~n:3));
        Alcotest.(check bool) "above 2f+1" false (has_layered p));
    test "write-back makes atomic reads cost as much as writes" (fun () ->
        let rows = Latency.compute p ~rounds:2 in
        let find name =
          List.find (fun (r : Latency.row) -> r.algo = name) rows
        in
        let plain = find "abd-max" and atomic = find "abd-max-atomic" in
        Alcotest.(check bool)
          "atomic read slower than regular read" true
          (atomic.avg_read > plain.avg_read));
    test "the CAS emulation's writes cost more than native max-registers"
      (fun () ->
        let rows = Latency.compute p ~rounds:2 in
        let find name =
          List.find (fun (r : Latency.row) -> r.algo = name) rows
        in
        Alcotest.(check bool)
          "abd-cas write > abd-max write" true
          ((find "abd-cas").avg_write > (find "abd-max").avg_write));
    test "latencies are deterministic under the round-robin policy" (fun () ->
        let run () =
          List.map
            (fun (r : Latency.row) -> (r.algo, r.avg_write, r.avg_read))
            (Latency.compute p ~rounds:1)
        in
        Alcotest.(check bool) "equal" true (run () = run ()));
  ]

let suites = [ ("fuzz", fuzz_tests); ("latency", latency_tests) ]
