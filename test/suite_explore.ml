(* Tests for the systematic-exploration layer: the DPOR engine
   (lib/mcheck/dpor.ml) against brute force, the regemu-cert/1
   certificate, the coverage bitmap, and the coverage-guided fuzzer
   against the committed regression corpus under test/corpus/. *)

open Regemu_bounds
open Regemu_objects
open Regemu_mcheck
open Regemu_explore

let test name f = Alcotest.test_case name `Quick f
let slow name f = Alcotest.test_case name `Slow f

let qcheck ~name ~count arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb p)

(* Params.make enforces n >= 2f+1 and f >= 1, so the smallest legal
   config is (k=1, f=1, n=3) — the issue's "n=2" does not exist in
   this model. *)
let p1 = Params.make_exn ~k:1 ~f:1 ~n:3
let p2 = Params.make_exn ~k:2 ~f:1 ~n:3

let scenario ?(mode = Explore.Sequential) ?(p = p1) factory ~writer_ops
    ~readers ~reads_each () =
  Explore.emulation_scenario factory p ~mode ~writer_ops ~readers ~reads_each
    ()

(* DPOR must reach exactly the terminal/verdict states brute force
   reaches, while executing no more transitions. *)
let check_dpor_vs_brute name factory ~writer_ops ~readers ~reads_each
    ~max_explored =
  let sc () = scenario factory ~writer_ops ~readers ~reads_each () in
  let d = Dpor.run ~check_invariants:false (sc ()) ~max_explored in
  let b =
    Dpor.run ~dpor:false ~sleep:false ~check_invariants:false (sc ())
      ~max_explored
  in
  Alcotest.(check bool) (name ^ ": dpor exhaustive") true d.Dpor.exhaustive;
  Alcotest.(check bool) (name ^ ": brute exhaustive") true b.Dpor.exhaustive;
  Alcotest.(check (list string))
    (name ^ ": identical terminal states")
    b.Dpor.state_fingerprints d.Dpor.state_fingerprints;
  Alcotest.(check bool)
    (name ^ ": dpor explores a subset")
    true
    (d.Dpor.explored <= b.Dpor.explored);
  (d, b)

let dpor_tests =
  [
    slow "dpor = brute force terminal states (algorithm2, 1w+1r)" (fun () ->
        let d, b =
          check_dpor_vs_brute "alg2" Regemu_core.Algorithm2.factory
            ~writer_ops:[ [ Value.Str "a" ] ]
            ~readers:1 ~reads_each:1 ~max_explored:3_000_000
        in
        Alcotest.(check bool)
          "dpor strictly smaller" true
          (d.Dpor.explored < b.Dpor.explored);
        Alcotest.(check int) "no ws-safe violations" 0 d.Dpor.ws_safe_violations;
        Alcotest.(check int)
          "no ws-regular violations" 0 d.Dpor.ws_regular_violations);
    slow "dpor = brute force terminal states (abd-max, 1w+1r)" (fun () ->
        ignore
          (check_dpor_vs_brute "abd" Regemu_baselines.Abd_max.factory
             ~writer_ops:[ [ Value.Str "a" ] ]
             ~readers:1 ~reads_each:1 ~max_explored:3_000_000));
    qcheck ~name:"dpor = brute force on random tiny scenarios" ~count:3
      QCheck.(
        pair (bool : bool arbitrary) (string_gen_of_size (Gen.return 3) Gen.printable))
      (fun (use_alg2, v) ->
        let factory =
          if use_alg2 then Regemu_core.Algorithm2.factory
          else Regemu_baselines.Abd_max.factory
        in
        let d, _ =
          check_dpor_vs_brute "qcheck" factory
            ~writer_ops:[ [ Value.Str v ] ]
            ~readers:1 ~reads_each:1 ~max_explored:3_000_000
        in
        d.Dpor.ws_safe_violations = 0 && d.Dpor.ws_regular_violations = 0);
    test "eager mode distinguishes read-old from read-new" (fun () ->
        let r =
          Dpor.run ~check_invariants:false
            (scenario Regemu_baselines.Abd_max.factory ~mode:Explore.Eager
               ~writer_ops:[ [ Value.Str "a" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_explored:500_000
        in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        Alcotest.(check bool)
          "a concurrent read reaches at least two outcomes" true
          (r.Dpor.distinct_states >= 2);
        Alcotest.(check int) "clean" 0
          (r.Dpor.ws_safe_violations + r.Dpor.ws_regular_violations));
    test "dpor finds the naive-register violations" (fun () ->
        let r =
          Dpor.run ~check_invariants:false
            (scenario Regemu_baselines.Naive_reg.factory ~p:p2
               ~writer_ops:[ [ Value.Str "a" ]; [ Value.Str "b" ] ]
               ~readers:1 ~reads_each:1 ())
            ~max_explored:2_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        Alcotest.(check bool)
          "ws-safe violations found" true
          (r.Dpor.ws_safe_violations > 0);
        Alcotest.(check bool)
          "a witness is reported" true
          (r.Dpor.first_violation <> None));
    test "pruning is substantial on the certificate config" (fun () ->
        (* the acceptance config: 1 writer x 2 ops, 1 reader x 2 reads *)
        let r =
          Dpor.run ~check_invariants:false
            (scenario Regemu_baselines.Abd_max.factory
               ~writer_ops:[ [ Value.Str "a"; Value.Str "b" ] ]
               ~readers:1 ~reads_each:2 ())
            ~max_explored:30_000_000
        in
        Alcotest.(check bool) "exhaustive" true r.Dpor.exhaustive;
        let ratio =
          float_of_int r.Dpor.pruned
          /. float_of_int (r.Dpor.pruned + r.Dpor.explored)
        in
        Alcotest.(check bool)
          (Fmt.str "pruning ratio %.3f >= 0.3" ratio)
          true (ratio >= 0.3));
  ]

(* --- regemu-cert/1 ------------------------------------------------------- *)

let abd_cert () =
  let stats =
    Dpor.run ~check_invariants:false
      (scenario Regemu_baselines.Abd_max.factory
         ~writer_ops:[ [ Value.Str "a" ] ]
         ~readers:1 ~reads_each:1 ())
      ~max_explored:500_000
  in
  Cert.make
    ~config:
      {
        Cert.algo = "abd-max";
        k = 1;
        f = 1;
        n = 3;
        mode = "sequential";
        writer_ops = [ 1 ];
        readers = 1;
        reads_each = 1;
        crashes = 0;
        max_explored = 500_000;
      }
    ~dpor:true ~sleep:true stats

let cert_tests =
  [
    test "certificate round-trips through JSON and validates" (fun () ->
        let cert = abd_cert () in
        Alcotest.(check string) "verdict" "verified-clean" cert.Cert.verdict;
        (match Cert.validate cert with
        | Ok () -> ()
        | Error m -> Alcotest.failf "fresh certificate invalid: %s" m);
        match Cert.of_json (Cert.to_json cert) with
        | Error m -> Alcotest.failf "round-trip failed: %s" m
        | Ok c ->
            Alcotest.(check bool) "round-trip is lossless" true (c = cert));
    test "validation rejects tampered counters" (fun () ->
        let cert = abd_cert () in
        let tampered = { cert with Cert.pruned = cert.Cert.pruned + 1 } in
        (match Cert.validate tampered with
        | Ok () -> Alcotest.fail "tampered floor accepted"
        | Error _ -> ());
        let lying = { cert with Cert.verdict = "violations-found" } in
        match Cert.validate lying with
        | Ok () -> Alcotest.fail "lying verdict accepted"
        | Error _ -> ());
    test "of_json rejects wrong schema and missing fields" (fun () ->
        (match Cert.of_json (Regemu_obs.Json.Obj [ ("schema", Regemu_obs.Json.Str "nope/9") ]) with
        | Ok _ -> Alcotest.fail "wrong schema accepted"
        | Error _ -> ());
        match Cert.of_json (Regemu_obs.Json.Obj [ ("schema", Regemu_obs.Json.Str "regemu-cert/1") ]) with
        | Ok _ -> Alcotest.fail "empty certificate accepted"
        | Error _ -> ());
  ]

(* --- golden statistics ---------------------------------------------------- *)

(* Every counter of four fixed searches, recorded before the engine's
   inner loop was made cheaper.  An optimisation must explore exactly
   the same schedules in the same order, so each field (replays and
   sleep-set skips included) has to come out identical; the sorted
   fingerprint list is pinned by its digest.  The budgets truncate, so
   the order in which backtrack threads are picked shows too. *)
let stats_summary (s : Dpor.stats) =
  Printf.sprintf
    "explored=%d replayed=%d pruned=%d sleep_skipped=%d terminal=%d \
     stuck=%d distinct=%d max_depth=%d exhaustive=%b ws_safe=%d \
     ws_regular=%d invariant=%d first_violation=%s fingerprints=%s"
    s.explored s.replayed s.pruned s.sleep_skipped s.terminal_runs
    s.stuck_runs s.distinct_states s.max_depth s.exhaustive
    s.ws_safe_violations s.ws_regular_violations s.invariant_violations
    (match s.first_violation with
    | None -> "none"
    | Some m -> Printf.sprintf "%S" m)
    (Digest.to_hex (Digest.string (String.concat "\n" s.state_fingerprints)))

let golden name ?dpor ?sleep sc ~max_explored expected =
  test name (fun () ->
      Alcotest.(check string)
        "stats" expected
        (stats_summary (Dpor.run ?dpor ?sleep sc ~max_explored)))

let str s = Value.Str s

let golden_tests =
  [
    (* the benchmark's search-dpor shape: Algorithm 2, 2 writers x 2
       writes and 1 reader x 2 reads, sequential *)
    golden "search-dpor shape at 500 transitions"
      (scenario Regemu_core.Algorithm2.factory ~p:p2
         ~writer_ops:[ [ str "a1"; str "a2" ]; [ str "b1"; str "b2" ] ]
         ~readers:1 ~reads_each:2 ())
      ~max_explored:500
      "explored=500 replayed=5626 pruned=1096 sleep_skipped=53 terminal=78 \
       stuck=0 distinct=1 max_depth=57 exhaustive=false ws_safe=0 \
       ws_regular=0 invariant=0 first_violation=none \
       fingerprints=5cc36d184d7fb1c0127a0843ec89ed73";
    golden "algorithm 2, k=2, eager, one crash, truncated"
      (Explore.emulation_scenario Regemu_core.Algorithm2.factory p2
         ~mode:Explore.Eager ~crashes:1
         ~writer_ops:[ [ str "a" ]; [ str "b" ] ]
         ~readers:1 ~reads_each:1 ())
      ~max_explored:5000
      "explored=5000 replayed=38812 pruned=4154 sleep_skipped=708 \
       terminal=1318 stuck=0 distinct=2 max_depth=30 exhaustive=false \
       ws_safe=0 ws_regular=0 invariant=0 first_violation=none \
       fingerprints=901b663dcd551205a5c915abd06ec1f8";
    golden "naive register, eager, invariants checked"
      (scenario Regemu_baselines.Naive_reg.factory ~mode:Explore.Eager
         ~writer_ops:[ [ str "a1"; str "a2" ] ]
         ~readers:1 ~reads_each:1 ())
      ~max_explored:5000
      "explored=5000 replayed=21305 pruned=4931 sleep_skipped=785 \
       terminal=1369 stuck=0 distinct=8 max_depth=19 exhaustive=false \
       ws_safe=0 ws_regular=0 invariant=507 first_violation=\"invariant: \
       at t=28, client c0: 2 of its writes pending on b1 simultaneously\" \
       fingerprints=8a47500665ece2840e305943ba3b0476";
    golden "abd-max brute force (no reduction, no sleep sets)" ~dpor:false
      ~sleep:false
      (scenario Regemu_baselines.Abd_max.factory
         ~writer_ops:[ [ str "a" ] ]
         ~readers:1 ~reads_each:1 ())
      ~max_explored:5000
      "explored=5000 replayed=20663 pruned=7 sleep_skipped=0 terminal=2272 \
       stuck=0 distinct=1 max_depth=12 exhaustive=false ws_safe=0 \
       ws_regular=0 invariant=0 first_violation=none \
       fingerprints=fd9309f06771eaf72db2b86cf3ae516e";
  ]

(* --- the committed certificates ------------------------------------------- *)

let cert_file dir =
  let rel = Filename.concat "experiments" (Filename.concat dir "cert.json") in
  if Sys.file_exists (Filename.concat ".." rel) then Filename.concat ".." rel
    (* dune runtest cwd *)
  else rel (* repo root *)

(* [make explore-exhaustive] writes experiments/exhaustive-*/cert.json
   with [regemu explore --exhaustive --algo A -f 1 -n 3 --ops-each 2];
   rebuild each in-process the same way and compare it with the file. *)
let committed_cert_test (dir, algo, factory) =
  test (Fmt.str "%s/cert.json is reproduced" dir) (fun () ->
      let budget = 2_000_000 in
      let stats =
        Dpor.run
          (scenario factory
             ~writer_ops:[ [ str "v0.0"; str "v0.1" ] ]
             ~readers:1 ~reads_each:2 ())
          ~max_explored:budget
      in
      let cert =
        Cert.make
          ~config:
            {
              Cert.algo;
              k = 1;
              f = 1;
              n = 3;
              mode = "sequential";
              writer_ops = [ 2 ];
              readers = 1;
              reads_each = 2;
              crashes = 0;
              max_explored = budget;
            }
          ~dpor:true ~sleep:true stats
      in
      let path = cert_file dir in
      let fields = function
        | Regemu_obs.Json.Obj kvs -> kvs
        | _ -> Alcotest.failf "%s: not a JSON object" path
      in
      let on_disk =
        match Regemu_obs.Json.of_file path with
        | Ok j -> fields j
        | Error m -> Alcotest.failf "%s: %s" path m
      in
      let rebuilt = fields (Cert.to_json cert) in
      Alcotest.(check (list string))
        "same fields" (List.map fst on_disk) (List.map fst rebuilt);
      List.iter
        (fun (k, v) ->
          Alcotest.(check string)
            k
            (Regemu_obs.Json.to_string v)
            (Regemu_obs.Json.to_string (List.assoc k rebuilt)))
        on_disk;
      let ic = open_in_bin path in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string)
        "byte-identical" bytes
        (Regemu_obs.Json.to_string (Cert.to_json cert) ^ "\n"))

let committed_cert_tests =
  List.map committed_cert_test
    [
      ("exhaustive-abd", "abd-max", Regemu_baselines.Abd_max.factory);
      ("exhaustive-alg2", "algorithm2", Regemu_core.Algorithm2.factory);
    ]

(* --- coverage bitmap ----------------------------------------------------- *)

let coverage_tests =
  [
    test "first run sets edges, identical rerun sets none" (fun () ->
        let c = Coverage.create () in
        let sites = [| 1; 2; 3; 2; 1 |] in
        let fresh = Coverage.add_run c ~sites in
        Alcotest.(check bool) "first run is novel" true (fresh > 0);
        Alcotest.(check int) "covered = fresh" fresh (Coverage.covered c);
        Alcotest.(check int) "identical rerun adds nothing" 0
          (Coverage.add_run c ~sites);
        let fresh2 = Coverage.add_run c ~sites:[| 3; 2; 1 |] in
        Alcotest.(check bool) "reversed order is a different edge set" true
          (fresh2 > 0));
    test "empty run covers nothing" (fun () ->
        let c = Coverage.create () in
        Alcotest.(check int) "no sites, no edges" 0
          (Coverage.add_run c ~sites:[||]);
        Alcotest.(check (float 1e-9)) "ratio 0" 0.0 (Coverage.ratio c));
  ]

(* --- coverage-guided fuzzing against the committed corpus ---------------- *)

let corpus_file name =
  if Sys.file_exists (Filename.concat "corpus" name) then
    Filename.concat "corpus" name (* dune runtest cwd *)
  else Filename.concat "test/corpus" name (* repo root *)

let corpus_files =
  [
    corpus_file "stall.json";
    corpus_file "fullpass-online.json";
    corpus_file "fullpass-online-stall.json";
  ]

let truncated a =
  let n = Array.length a in
  Array.sub a 0 (2 * n / 3)

let cgfuzz_tests =
  let open Regemu_dst in
  List.map
    (fun file ->
      test (Fmt.str "cg fuzzing rediscovers %s" (Filename.basename file))
        (fun () ->
          match Dst_fuzz.read_replay file with
          | Error m -> Alcotest.failf "%s: %s" file m
          | Ok spec ->
              (* the committed counterexample must still reproduce *)
              let r = Dst_fuzz.replay spec in
              Alcotest.(check bool)
                (file ^ ": replay reproduces the recorded verdict")
                true (Dst_fuzz.replay_matched r);
              let key = Dst_fuzz.failure_key r.Dst_fuzz.outcome in
              Alcotest.(check bool) "the corpus entry fails" true (key <> []);
              (* seed the fuzzer with a truncated prefix of the witness
                 trace: it must search its way back to the same
                 violation kind within a small budget.  Quiet keeps the
                 committed config (nemesis included) exactly as is. *)
              let report =
                Cgfuzz.fuzz
                  ~init:[ truncated spec.Dst_fuzz.r_choices ]
                  ~profile:Dst_fuzz.Quiet ~base:spec.Dst_fuzz.r_cfg ~budget:80
                  ()
              in
              Alcotest.(check bool)
                (Fmt.str "%s: kind [%s] rediscovered in %d runs" file
                   (String.concat "," key) report.Cgfuzz.runs)
                true
                (Cgfuzz.found report key)))
    corpus_files
  @ [
      test "cg fuzzing is deterministic in (config, budget)" (fun () ->
          let base =
            {
              (Dst.default_config ~seed:11) with
              Dst.readers = 1;
              ops_per_client = 3;
            }
          in
          let run () =
            Cgfuzz.fuzz ~profile:Dst_fuzz.Quiet ~base ~budget:40 ()
          in
          let a = run () and b = run () in
          Alcotest.(check int) "same schedules" a.Cgfuzz.schedules
            b.Cgfuzz.schedules;
          Alcotest.(check int) "same edges" a.Cgfuzz.edges b.Cgfuzz.edges;
          Alcotest.(check int) "same corpus" (List.length a.Cgfuzz.corpus)
            (List.length b.Cgfuzz.corpus);
          Alcotest.(check bool) "same violation keys" true
            (Cgfuzz.violation_keys a = Cgfuzz.violation_keys b));
      test "a quiet burst finds no violations and grows the corpus" (fun () ->
          let base =
            {
              (Dst.default_config ~seed:5) with
              Dst.readers = 1;
              ops_per_client = 3;
            }
          in
          let r = Cgfuzz.fuzz ~profile:Dst_fuzz.Quiet ~base ~budget:60 () in
          Alcotest.(check int) "budget spent exactly" 60 r.Cgfuzz.runs;
          Alcotest.(check (list (list string))) "clean" []
            (Cgfuzz.violation_keys r);
          Alcotest.(check bool) "corpus grew beyond the bootstrap" true
            (List.length r.Cgfuzz.corpus > 1));
    ]

let suites =
  [
    ("explore.dpor", dpor_tests);
    ("explore.golden", golden_tests);
    ("explore.cert", cert_tests @ committed_cert_tests);
    ("explore.coverage", coverage_tests);
    ("explore.cgfuzz", cgfuzz_tests);
  ]
