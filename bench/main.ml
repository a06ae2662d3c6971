(* Benchmark & reproduction harness.

   Running [dune exec bench/main.exe] first regenerates every table and
   figure of the paper's evaluation (printed as aligned text tables),
   then runs one Bechamel micro-benchmark per experiment to time the
   machinery itself.

   [dune exec bench/main.exe -- <section>] runs a single section; see
   [usage] below. *)

open Regemu_bounds
open Regemu_harness

let pr_report r = Fmt.pr "%a@." Report.pp r

let table1 () =
  pr_report (Table1.report (Table1.compute ~seed:42 ()));
  Fmt.pr
    "shape check: max-register and CAS rows are 2f+1 and independent of k; \
     the register row grows with k and shrinks with n until kf+f+1.@.@."

let fig1 () =
  Fmt.pr "%s@." (Figures.figure1 ());
  pr_report (Theorems.load_balance ~k:5 ~f:2 ~n:6 ~rounds:2 ~seed:42)

let fig2 () =
  match Figures.figure2 ~f:2 () with
  | Ok s -> Fmt.pr "%s@." s
  | Error e -> Fmt.epr "figure2 failed: %s@." e

let lemma1 () =
  (match Theorems.lemma1 ~seed:42 () with
  | Ok r -> pr_report r
  | Error e -> Fmt.epr "lemma1 failed: %s@." e);
  match
    Regemu_adversary.Lowerbound.execute Regemu_core.Algorithm2.factory
      (Params.make_exn ~k:5 ~f:2 ~n:6) ~seed:42 ()
  with
  | Ok run ->
      Fmt.pr "Covering timeline (the staircase of the lower bound):@.%s@."
        (Timeline.render run.trace)
  | Error e -> Fmt.epr "timeline failed: %s@." e

let thm1 () =
  pr_report (Theorems.theorem1_sweep ~k:5 ~f:2 ());
  pr_report (Theorems.theorem1_sweep ~k:8 ~f:1 ())

let thm2 () = pr_report (Theorems.theorem2 ~ks:[ 1; 2; 4; 8; 16 ])

let thm5 () =
  match Theorems.theorem5 ~f:2 with
  | Ok s -> Fmt.pr "%s@." s
  | Error e -> Fmt.epr "theorem5 failed: %s@." e

let thm6 () =
  pr_report (Theorems.theorem6 ~k:4 ~f:2);
  match Theorems.theorem6_adversarial ~k:4 ~f:2 ~seed:42 with
  | Ok r -> pr_report r
  | Error e -> Fmt.epr "theorem6 adversarial failed: %s@." e

let inversion () =
  match Theorems.inversion () with
  | Ok s -> Fmt.pr "%s@." s
  | Error e -> Fmt.epr "inversion failed: %s@." e

let thm7 () =
  pr_report (Theorems.theorem7 ~k:6 ~f:2 ~capacities:[ 1; 2; 3; 4; 6; 12 ])

let thm8 () =
  match Theorems.theorem8 ~seed:42 () with
  | Ok r -> pr_report r
  | Error e -> Fmt.epr "theorem8 failed: %s@." e

let classification () =
  pr_report (Theorems.classification ~k:5 ~f:2 ~n:6)

let rspace () =
  pr_report
    (Theorems.reader_space ~k:3 ~f:1 ~n:5 ~readers_list:[ 0; 1; 2; 4; 8 ])

let latency () =
  let p = Params.make_exn ~k:3 ~f:1 ~n:5 in
  pr_report (Latency.report p (Latency.compute p ~rounds:2));
  let p' = Params.make_exn ~k:3 ~f:2 ~n:5 in
  pr_report (Latency.report p' (Latency.compute p' ~rounds:2))

let alg1 () =
  pr_report
    (Theorems.algorithm1_time ~writers_list:[ 1; 2; 4; 8 ] ~ops_per_writer:8
       ~seed:42);
  pr_report (Theorems.maxreg_comparison ~k:4 ~capacity:64 ~ops:6 ~seed:42)

let netabd () =
  pr_report (Wire.abd_messages ~fs:[ 1; 2; 3; 4 ] ~ops:6 ~seed:1);
  pr_report
    (Wire.alg2_messages
       ~configs:[ (1, 1, 3); (2, 1, 4); (3, 1, 5); (3, 2, 7) ]
       ~seed:3);
  match Wire.staircase ~k:5 ~f:2 ~n:6 ~seed:42 with
  | Ok r -> pr_report r
  | Error e -> Fmt.epr "wire staircase failed: %s@." e

let explore () =
  let p = Params.make_exn ~k:1 ~f:1 ~n:3 in
  let show name factory =
    let r =
      Regemu_mcheck.Explore.run
        (Regemu_mcheck.Explore.emulation_scenario factory p
           ~mode:Regemu_mcheck.Explore.Sequential
           ~writer_ops:[ [ Regemu_objects.Value.Str "a" ] ]
           ~readers:1 ~reads_each:1 ())
        ~max_fired:2_000_000
    in
    Fmt.pr "%-12s %a@." name Regemu_mcheck.Explore.result_pp r
  in
  Fmt.pr
    "== Systematic exploration: one write + one read at (k=1,f=1,n=3), all \
     schedules ==@.";
  show "algorithm2" Regemu_core.Algorithm2.factory;
  show "abd-max" Regemu_baselines.Abd_max.factory;
  show "naive-reg" Regemu_baselines.Naive_reg.factory;
  Fmt.pr
    "(for two writers the same search finds the Figure 2 violation against \
     naive-reg; see `regemu explore --algo naive-reg --writes 2`)@.@."

let saturate () =
  (* a bounded cut of `regemu live --saturate` (the full sweep with
     median-of-3 reps is the Makefile's perf-bench target) *)
  let open Regemu_live in
  Fmt.pr
    "== Live-cluster saturation (bounded; see `make perf-bench` for the \
     tracked sweep) ==@.";
  List.iter
    (fun spec ->
      Fmt.pr "%a@." Live_bench.outcome_pp (Live_bench.run spec))
    (Live_bench.saturate_specs ~clients:[ 2; 8 ] ~ops_per_client:100 ~seed:42
       ())

let sections =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("fig2", fig2);
    ("lemma1", lemma1);
    ("thm1", thm1);
    ("thm2", thm2);
    ("thm5", thm5);
    ("thm6", thm6);
    ("inversion", inversion);
    ("thm7", thm7);
    ("thm8", thm8);
    ("alg1", alg1);
    ("latency", latency);
    ("classification", classification);
    ("rspace", rspace);
    ("netabd", netabd);
    ("explore", explore);
    ("saturate", saturate);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure.          *)

open Bechamel
open Toolkit

let fig1_params = Params.make_exn ~k:5 ~f:2 ~n:6

let seq_write_scenario factory =
  Staged.stage (fun () ->
      match
        Regemu_workload.Scenario.write_sequential factory fig1_params
          ~read_after_each:false ~rounds:1 ~seed:1 ()
      with
      | Ok _ -> ()
      | Error e ->
          failwith (Fmt.str "%a" Regemu_workload.Scenario.error_pp e))

let bench_tests =
  [
    (* Table 1: one full sequential round per emulation *)
    Test.make ~name:"table1/algorithm2"
      (seq_write_scenario Regemu_core.Algorithm2.factory);
    Test.make ~name:"table1/abd-max"
      (seq_write_scenario Regemu_baselines.Abd_max.factory);
    Test.make ~name:"table1/abd-cas"
      (seq_write_scenario Regemu_baselines.Abd_cas.factory);
    (* Figure 1: layout construction *)
    Test.make ~name:"fig1/layout-build"
      (Staged.stage (fun () ->
           ignore (Regemu_bounds.Layout.make fig1_params)));
    (* Figure 2: the violating schedule *)
    Test.make ~name:"fig2/violation"
      (Staged.stage (fun () ->
           match Regemu_adversary.Violation.against_naive ~f:2 with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Lemma 1: a full adversarial construction *)
    Test.make ~name:"lemma1/adversarial-run"
      (Staged.stage (fun () ->
           match
             Regemu_adversary.Lowerbound.execute
               Regemu_core.Algorithm2.factory
               (Params.make_exn ~k:3 ~f:1 ~n:5)
               ~check_lemma2:false ~seed:1 ()
           with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Theorem 1: the bound sweep *)
    Test.make ~name:"thm1/bound-sweep"
      (Staged.stage (fun () ->
           ignore (Theorems.theorem1_sweep ~k:5 ~f:2 ())));
    (* Theorem 2: max-register collect read *)
    Test.make ~name:"thm2/reg-maxreg-ops"
      (Staged.stage (fun () ->
           let open Regemu_sim in
           let sim = Sim.create ~n:1 () in
           let writers = List.init 8 (fun _ -> Sim.new_client sim) in
           let m =
             Regemu_baselines.Reg_maxreg.create sim
               ~server:(Regemu_objects.Id.Server.of_int 0)
               ~writers
           in
           let policy = Policy.responds_first in
           List.iteri
             (fun i c ->
               ignore
                 (Driver.finish_call_exn sim policy ~budget:1_000
                    (Regemu_baselines.Reg_maxreg.write_max m c
                       (Regemu_objects.Value.Int i))))
             writers;
           ignore
             (Driver.finish_call_exn sim policy ~budget:1_000
                (Regemu_baselines.Reg_maxreg.read_max m (List.hd writers)))));
    (* Theorem 5: the partitioning schedule *)
    Test.make ~name:"thm5/partition"
      (Staged.stage (fun () ->
           match Regemu_adversary.Partition.impossibility ~f:2 with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* New/old inversion construction + both brute-force checks *)
    Test.make ~name:"inversion/abd-max"
      (Staged.stage (fun () ->
           match Regemu_adversary.Inversion.against_abd_max () with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* Theorem 6: per-server layout audit *)
    Test.make ~name:"thm6/per-server-audit"
      (Staged.stage (fun () -> ignore (Theorems.theorem6 ~k:4 ~f:2)));
    (* Theorem 7: capacity planning *)
    Test.make ~name:"thm7/min-servers"
      (Staged.stage (fun () ->
           ignore (Theorems.theorem7 ~k:6 ~f:2 ~capacities:[ 1; 2; 3; 6 ])));
    (* Theorem 8: contention-vs-usage run *)
    Test.make ~name:"thm8/non-adaptivity-run"
      (Staged.stage (fun () ->
           match
             Theorems.theorem8
               ~params:(Params.make_exn ~k:4 ~f:1 ~n:10)
               ~seed:1 ()
           with
           | Ok _ -> ()
           | Error e -> failwith e));
    (* reader-space and classification tables *)
    Test.make ~name:"rspace/table"
      (Staged.stage (fun () ->
           ignore
             (Theorems.reader_space ~k:3 ~f:1 ~n:5 ~readers_list:[ 0; 2; 4 ])));
    Test.make ~name:"classification/table"
      (Staged.stage (fun () ->
           ignore (Theorems.classification ~k:5 ~f:2 ~n:6)));
    (* Latency comparison *)
    Test.make ~name:"latency/compare"
      (Staged.stage (fun () ->
           ignore
             (Latency.compute (Params.make_exn ~k:2 ~f:1 ~n:4) ~rounds:1)));
    (* bounded exhaustive exploration of a tiny scenario *)
    Test.make ~name:"explore/tiny-exhaustive"
      (Staged.stage (fun () ->
           ignore
             (Regemu_mcheck.Explore.run
                (Regemu_mcheck.Explore.emulation_scenario
                   Regemu_baselines.Abd_max.factory
                   (Params.make_exn ~k:1 ~f:1 ~n:3)
                   ~mode:Regemu_mcheck.Explore.Sequential
                   ~writer_ops:[ [ Regemu_objects.Value.Int 1 ] ]
                   ~readers:0 ~reads_each:0 ())
                ~max_fired:100_000)));
    (* message-passing ABD round *)
    Test.make ~name:"netabd/write-read"
      (Staged.stage (fun () ->
           let net = Regemu_netsim.Net.create ~n:3 () in
           let abd = Regemu_netsim.Abd_net.create net ~f:1 () in
           let w = Regemu_netsim.Net.new_client net in
           let rng = Regemu_sim.Rng.create 1 in
           let call = Regemu_netsim.Abd_net.write abd w (Regemu_objects.Value.Int 1) in
           let rec go budget =
             if Regemu_netsim.Net.call_returned call || budget = 0 then ()
             else begin
               (match Regemu_netsim.Net.enabled net with
               | [] -> ()
               | evs ->
                   Regemu_netsim.Net.fire net (Regemu_sim.Rng.pick rng evs));
               go (budget - 1)
             end
           in
           go 10_000));
    (* Algorithm 1: CAS max-register under contention *)
    Test.make ~name:"alg1/cas-write-max"
      (Staged.stage (fun () ->
           ignore
             (Theorems.algorithm1_time ~writers_list:[ 4 ] ~ops_per_writer:4
                ~seed:1)));
  ]

(* one bench row per micro-benchmark, in [Test.names] order: its OLS
   ns-per-run estimate and r²; a row is clean when OLS produced an
   estimate *)
let rows names results =
  let per_test =
    Hashtbl.fold
      (fun measure tbl acc ->
        Hashtbl.fold (fun name ols acc -> (name, (measure, ols)) :: acc) tbl acc)
      results []
  in
  List.map
    (fun name ->
      let measure, ols = List.assoc name per_test in
      let ns_per_run =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> Some e
        | Some [] | None -> None
      in
      let num = function
        | Some x -> Regemu_obs.Json.Float x
        | None -> Regemu_obs.Json.Null
      in
      {
        Regemu_obs.Benchdoc.name;
        params = [ ("measure", Regemu_obs.Json.Str measure) ];
        metrics =
          [
            ("ns_per_run", num ns_per_run);
            ("r_square", num (Analyze.OLS.r_square ols));
          ];
        clean = ns_per_run <> None;
      })
    names

let run_benchmarks ?json () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let tests = Test.make_grouped ~name:"regemu" ~fmt:"%s %s" bench_tests in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  Bechamel_notty.Unit.add Instance.monotonic_clock
    (Measure.unit Instance.monotonic_clock);
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Fmt.pr "== Micro-benchmarks (monotonic clock per run) ==@.";
  Notty_unix.output_image (Notty_unix.eol img);
  match json with
  | None -> ()
  | Some path -> (
      let names = Test.names tests in
      (* the micro-benchmarks fix their own seeds *)
      match
        Regemu_obs.Benchdoc.emit ~path
          { bench = "micro"; rows = names; metrics = [] }
          ~seed:0 ~smoke:false (rows names results)
      with
      | Ok () -> Fmt.pr "wrote %s@." path
      | Error m ->
          Fmt.epr "error: %s@." m;
          exit 1)

let usage () =
  Fmt.pr "usage: main.exe [all|bench|%s] [--json FILE]@."
    (String.concat "|" (List.map fst sections))

let () =
  (* peel off a trailing [--json FILE] before dispatching *)
  let argv = Array.to_list Sys.argv in
  let rec split acc = function
    | "--json" :: path :: rest -> (List.rev_append acc rest, Some path)
    | a :: rest -> split (a :: acc) rest
    | [] -> (List.rev acc, None)
  in
  let args, json = split [] argv in
  match args with
  | [ _ ] | [ _; "all" ] ->
      List.iter (fun (_, f) -> f ()) sections;
      run_benchmarks ?json ()
  | [ _; "bench" ] -> run_benchmarks ?json ()
  | [ _; name ] -> (
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None -> usage ())
  | _ -> usage ()
