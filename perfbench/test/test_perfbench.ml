(* Tests of the benchmark itself: its inputs are a function of the seed,
   its deterministic counts repeat, its correctness gate has teeth, and
   every workload runs end to end at a small size. *)

(* the socket workload re-executes this binary as its server processes *)
let () = Regemu_live.Transport_socket.child_check ()

open Perfbench
module W = Workloads

let sched seed =
  Openloop.make ~seed ~keys:1000 ~zipf:0.99 ~write_fraction:0.5 ~rate:500.0 ~count:400

let test_schedule_seeded () =
  Alcotest.(check bool) "same seed, same schedule" true (sched 7 = sched 7);
  Alcotest.(check bool) "another seed, another schedule" false (sched 7 = sched 8);
  let s = sched 7 in
  Alcotest.(check bool)
    "due times ascend" true
    (Array.for_all Fun.id
       (Array.init (Array.length s - 1) (fun i -> s.(i).Openloop.due_ns <= s.(i + 1).Openloop.due_ns)))

let test_schedule_is_openload_stream () =
  let s = sched 7 in
  Alcotest.(check (list int))
    "keys and kinds match Openload" []
    (Openloop.check_keys ~seed:7 ~keys:1000 ~zipf:0.99 ~write_fraction:0.5 ~rate:500.0 s
       ~samples:50)

let test_dpor_counts_repeat () =
  let run () =
    W.dpor_counts (Regemu_mcheck.Dpor.run (W.dpor_scenario ~seed:3) ~max_explored:400)
  in
  let a = run () in
  Alcotest.(check (list int)) "two runs, one count" a (run ());
  Alcotest.(check bool) "it explored" true (List.hd a > 0)

let clean =
  {
    Gate.empty with
    Gate.checker = Some Gate.Holds;
    issued = 10;
    completed = 10;
    space_cells = 6;
    space_formula = 6;
    dpor_counts = [ [ 1; 2 ]; [ 1; 2 ] ];
  }

let fails o = Gate.check o <> []

let test_gate () =
  Alcotest.(check bool) "a clean run passes" false (fails clean);
  Alcotest.(check bool) "wrong space_cells fails" true (fails { clean with space_cells = 7 });
  Alcotest.(check bool)
    "a violated verdict fails" true
    (fails { clean with checker = Some (Gate.Violated "stale read") });
  Alcotest.(check bool) "a vacuous verdict passes" false
    (fails { clean with checker = Some Gate.Vacuous });
  Alcotest.(check bool) "a deep mismatch fails" true (fails { clean with deep_mismatches = 1 });
  Alcotest.(check bool) "an uncounted op fails" true (fails { clean with completed = 9 });
  Alcotest.(check bool) "a counted failure passes" false
    (fails { clean with completed = 9; failed = 1 });
  Alcotest.(check bool) "a dpor violation fails" true (fails { clean with dpor_violations = 1 });
  Alcotest.(check bool)
    "dpor counts that differ fail" true
    (fails { clean with dpor_counts = [ [ 1; 2 ]; [ 1; 3 ] ] });
  Alcotest.(check bool) "a wrong final read fails" true
    (fails { clean with final_read = Some "stale" })

let test_small_run wl ~trace () =
  let r = W.run wl ~trace ~seed:5 ~size:W.small in
  Alcotest.(check (list string)) "the gate passes" [] r.W.failures;
  Alcotest.(check bool) "ops were attempted" true (r.W.attempted >= 1);
  let names = List.map fst (if trace then W.layers else W.e2e) in
  Alcotest.(check (list string)) "every metric is reported" names (List.map fst r.W.metrics);
  List.iter
    (fun (n, v) -> Alcotest.(check bool) (n ^ " is a number") true (Float.is_finite v && v >= 0.0))
    r.W.metrics;
  (* a layer off the workload's path is not replayed and reads 0 *)
  if trace then begin
    let none = Replay.measure ~min_ns:1 ~path:[] (Replay.cds ~f:1 [||]) in
    List.iter
      (fun layer ->
        if not (List.mem layer (W.path wl)) then
          List.iter
            (fun (n, _) -> Alcotest.(check (float 0.0)) (n ^ " reads 0") 0.0 (List.assoc n r.W.metrics))
            (W.layer_metrics none layer))
      Replay.[ Proto_step; Codec; Ringbuf; Mpsc; Histlog; Placement ]
  end;
  (* CPU time is read in 10 ms ticks, too coarse for a run this short to
     be sure of a nonzero figure; set-up time and space are exact *)
  if not trace then
    List.iter
      (fun n ->
        Alcotest.(check bool) (n ^ " is positive") true (List.assoc n r.W.metrics > 0.0))
      [ "setup_s"; "space_cells" ]

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "schedule is a function of the seed" `Quick test_schedule_seeded;
          Alcotest.test_case "schedule is Openload's op stream" `Quick
            test_schedule_is_openload_stream;
          Alcotest.test_case "search-dpor counts repeat" `Quick test_dpor_counts_repeat;
        ] );
      ("gate", [ Alcotest.test_case "correctness gate" `Quick test_gate ]);
      ( "small runs",
        List.concat_map
          (fun (name, wl) ->
            [
              Alcotest.test_case (name ^ " untraced") `Quick (test_small_run wl ~trace:false);
              Alcotest.test_case (name ^ " traced") `Quick (test_small_run wl ~trace:true);
            ])
          W.workloads );
    ]
