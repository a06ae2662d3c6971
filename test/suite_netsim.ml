(* Tests for the message-passing substrate and ABD over it. *)

open Regemu_objects
open Regemu_history
open Regemu_netsim

let test name f = Alcotest.test_case name `Quick f

(* drive a net run with a seeded uniform environment *)
let drive net rng ~budget ~goal =
  let rec go budget =
    if goal () then true
    else if budget = 0 then false
    else
      match Net.enabled net with
      | [] -> false
      | evs ->
          Net.fire net (Regemu_sim.Rng.pick rng evs);
          go (budget - 1)
  in
  go budget

let finish net rng call =
  if not (drive net rng ~budget:50_000 ~goal:(fun () -> Net.call_returned call))
  then Alcotest.fail "operation did not return";
  Option.get (Net.call_result call)

(* --- network basics ----------------------------------------------------- *)

let net_tests =
  [
    test "messages are delivered and counted" (fun () ->
        let net = Net.create ~n:3 () in
        let c = Net.new_client net in
        let rid = Net.fresh_rid net in
        let got = ref None in
        Net.on_reply net ~client:c ~rid (fun p -> got := Some p);
        Net.send net ~from:c (Id.Server.of_int 0) (Net.Query { rid });
        Alcotest.(check int) "one in flight" 1 (Net.in_flight net);
        (* deliver the request, then the reply *)
        let rec drain () =
          match Net.enabled net with
          | Net.Deliver m :: _ ->
              Net.fire net (Net.Deliver m);
              drain ()
          | _ -> ()
        in
        drain ();
        Alcotest.(check int) "delivered both" 2 (Net.delivered net);
        match !got with
        | Some (Net.Query_reply { stored; _ }) ->
            Alcotest.(check bool) "v0" true (Value.equal stored Value.v0)
        | _ -> Alcotest.fail "expected a query reply");
    test "messages to crashed servers are never deliverable" (fun () ->
        let net = Net.create ~n:3 () in
        let c = Net.new_client net in
        let rid = Net.fresh_rid net in
        Net.send net ~from:c (Id.Server.of_int 1) (Net.Query { rid });
        Net.crash_server net (Id.Server.of_int 1);
        Alcotest.(check int) "nothing enabled" 0 (List.length (Net.enabled net));
        Alcotest.(check int) "still in flight" 1 (Net.in_flight net));
    test "server update keeps the max" (fun () ->
        let net = Net.create ~n:1 () in
        let c = Net.new_client net in
        let send_update v =
          let rid = Net.fresh_rid net in
          Net.on_reply net ~client:c ~rid (fun _ -> ());
          Net.send net ~from:c (Id.Server.of_int 0)
            (Net.Update { rid; proposed = v })
        in
        send_update (Value.with_ts 2 (Value.Str "b"));
        send_update (Value.with_ts 1 (Value.Str "a"));
        let rec drain () =
          match Net.enabled net with
          | ev :: _ ->
              Net.fire net ev;
              drain ()
          | [] -> ()
        in
        drain ();
        (* a query now returns ts 2 *)
        let rid = Net.fresh_rid net in
        let got = ref Value.v0 in
        Net.on_reply net ~client:c ~rid (fun p ->
            match p with
            | Net.Query_reply { stored; _ } -> got := stored
            | _ -> ());
        Net.send net ~from:c (Id.Server.of_int 0) (Net.Query { rid });
        drain ();
        Alcotest.(check int) "ts" 2 (Value.ts !got));
  ]

(* --- ABD over the network ------------------------------------------------ *)

let abd_tests =
  [
    test "sequential write then read returns the value" (fun () ->
        let net = Net.create ~n:3 () in
        let abd = Abd_net.create net ~f:1 () in
        let w = Net.new_client net and r = Net.new_client net in
        let rng = Regemu_sim.Rng.create 11 in
        ignore (finish net rng (Abd_net.write abd w (Value.Str "x")));
        let v = finish net rng (Abd_net.read abd r) in
        Alcotest.(check bool) "x" true (Value.equal v (Value.Str "x")));
    test "survives f crashed servers" (fun () ->
        let net = Net.create ~n:5 () in
        let abd = Abd_net.create net ~f:2 () in
        let w = Net.new_client net and r = Net.new_client net in
        let rng = Regemu_sim.Rng.create 3 in
        Net.crash_server net (Id.Server.of_int 0);
        Net.crash_server net (Id.Server.of_int 3);
        ignore (finish net rng (Abd_net.write abd w (Value.Str "y")));
        let v = finish net rng (Abd_net.read abd r) in
        Alcotest.(check bool) "y" true (Value.equal v (Value.Str "y")));
    test "blocks when f+1 servers crash (majority lost)" (fun () ->
        let net = Net.create ~n:3 () in
        let abd = Abd_net.create net ~f:1 () in
        let w = Net.new_client net in
        Net.crash_server net (Id.Server.of_int 0);
        Net.crash_server net (Id.Server.of_int 1);
        let rng = Regemu_sim.Rng.create 5 in
        let call = Abd_net.write abd w (Value.Str "z") in
        Alcotest.(check bool)
          "stuck" false
          (drive net rng ~budget:5_000 ~goal:(fun () ->
               Net.call_returned call)));
    test "uses 2f+1 replicas" (fun () ->
        let net = Net.create ~n:9 () in
        let abd = Abd_net.create net ~f:3 () in
        Alcotest.(check int) "replicas" 7 (Abd_net.replicas abd));
    test "rejects too few servers" (fun () ->
        let net = Net.create ~n:2 () in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Abd_net.create net ~f:1 ());
             false
           with Invalid_argument _ -> true));
  ]

(* --- duplication (at-least-once delivery) -------------------------------- *)

let duplication_tests =
  [
    test "a duplicated reply does not double-count toward a quorum" (fun () ->
        let net = Net.create ~n:3 () in
        let abd = Abd_net.create net ~f:1 () in
        let w = Net.new_client net in
        let call = Abd_net.write abd w (Value.Str "x") in
        (* deliver the three query requests; three replies appear *)
        let rec deliver_all () =
          match Net.enabled net with
          | Net.Deliver m :: _ ->
              Net.fire net (Net.Deliver m);
              deliver_all ()
          | _ -> ()
        in
        (* duplicate the first in-flight message several times before
           anything is delivered, then let everything through *)
        (match Net.enabled net with
        | Net.Deliver m :: _ ->
            Net.duplicate net m;
            Net.duplicate net m
        | _ -> Alcotest.fail "expected in-flight requests");
        deliver_all ();
        (* the write must still be waiting for its update phase to be
           triggered and acknowledged — run to completion fairly *)
        let rng = Regemu_sim.Rng.create 1 in
        Alcotest.(check bool)
          "write completes" true
          (drive net rng ~budget:10_000 ~goal:(fun () ->
               Net.call_returned call)));
    test "duplicating a non-existent message is rejected" (fun () ->
        let net = Net.create ~n:3 () in
        Alcotest.(check bool)
          "raises" true
          (try
             Net.duplicate net 99;
             false
           with Invalid_argument _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"ABD stays correct under random message duplication"
         ~count:60
         (QCheck.make QCheck.Gen.(int_range 0 1_000_000) ~print:string_of_int)
         (fun seed ->
           let net = Net.create ~n:3 () in
           let abd = Abd_net.create net ~f:1 ~write_back_reads:true () in
           let w = Net.new_client net and r = Net.new_client net in
           let rng = Regemu_sim.Rng.create seed in
           let finish call =
             let rec go budget =
               if Net.call_returned call then true
               else if budget = 0 then false
               else begin
                 (* duplicate a random in-flight message now and then *)
                 (if
                    Net.in_flight net > 0
                    && Regemu_sim.Rng.int rng ~bound:5 = 0
                  then
                    match Net.enabled net with
                    | Net.Deliver m :: _ -> Net.duplicate net m
                    | _ -> ());
                 (match Net.enabled net with
                 | [] -> ()
                 | evs -> Net.fire net (Regemu_sim.Rng.pick rng evs));
                 go (budget - 1)
               end
             in
             go 50_000
           in
           finish (Abd_net.write abd w (Value.Str "a"))
           && finish (Abd_net.read abd r)
           && finish (Abd_net.write abd w (Value.Str "b"))
           && finish (Abd_net.read abd r)
           && Regularity.is_atomic (Net.history net)));
  ]

(* --- randomized safety --------------------------------------------------- *)

let arb_seed = QCheck.make QCheck.Gen.(int_range 0 1_000_000) ~print:string_of_int

(* sequential writes by two writers, reads interleaved concurrently *)
let random_run ~write_back ~seed =
  let net = Net.create ~n:3 () in
  let abd = Abd_net.create net ~f:1 ~write_back_reads:write_back () in
  let w1 = Net.new_client net and w2 = Net.new_client net in
  let r1 = Net.new_client net and r2 = Net.new_client net in
  let rng = Regemu_sim.Rng.create seed in
  let reads = ref [] in
  let drive_with_reads call =
    let rec go budget =
      if budget = 0 then Alcotest.fail "write stalled";
      if Net.call_returned call then ()
      else begin
        (if Regemu_sim.Rng.int rng ~bound:12 = 0 then
           let idle =
             List.filter
               (fun (_, busy) -> not (busy ()))
               [
                 (r1, fun () -> List.exists (fun (c', call) -> Id.Client.equal c' r1 && not (Net.call_returned call)) !reads);
                 (r2, fun () -> List.exists (fun (c', call) -> Id.Client.equal c' r2 && not (Net.call_returned call)) !reads);
               ]
           in
           match idle with
           | (c, _) :: _ -> reads := (c, Abd_net.read abd c) :: !reads
           | [] -> ());
        (match Net.enabled net with
        | [] -> ()
        | evs -> Net.fire net (Regemu_sim.Rng.pick rng evs));
        go (budget - 1)
      end
    in
    go 50_000
  in
  drive_with_reads (Abd_net.write abd w1 (Value.Str "a"));
  drive_with_reads (Abd_net.write abd w2 (Value.Str "b"));
  drive_with_reads (Abd_net.write abd w1 (Value.Str "c"));
  (* drain outstanding reads *)
  let all_done () =
    List.for_all (fun (_, call) -> Net.call_returned call) !reads
  in
  if not (drive net rng ~budget:100_000 ~goal:all_done) then
    Alcotest.fail "reads stalled";
  Net.history net

let random_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"net-ABD is WS-Regular under random message reordering"
         ~count:80 arb_seed
         (fun seed -> Ws_check.is_ws_regular (random_run ~write_back:false ~seed)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"net-ABD with read write-back is atomic"
         ~count:60 arb_seed
         (fun seed -> Regularity.is_atomic (random_run ~write_back:true ~seed)));
  ]

(* --- scenario runners over the network ------------------------------------ *)

let ok_or_fail = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e

let p_net = Regemu_bounds.Params.make_exn ~k:2 ~f:1 ~n:4

let scenario_tests =
  [
    test "sequential scenario: WS-Safe with crashes and duplication"
      (fun () ->
        let r =
          ok_or_fail
            (Net_scenario.write_sequential ~p:p_net ~rounds:2 ~crashes:1
               ~duplication:true ~seed:5 ())
        in
        (match Ws_check.check_ws_safe r.history with
        | Ws_check.Holds -> ()
        | v -> Alcotest.failf "ws-safe: %a" Ws_check.verdict_pp v);
        Alcotest.(check bool)
          "delivered messages" true
          (r.messages_delivered > 0));
    test "concurrent-reads scenario: WS-Regular" (fun () ->
        let r =
          ok_or_fail
            (Net_scenario.concurrent_reads ~p:p_net ~rounds:2 ~readers:2
               ~crashes:1 ~duplication:false ~seed:7 ())
        in
        match Ws_check.check_ws_regular r.history with
        | Ws_check.Holds | Ws_check.Vacuous -> ()
        | v -> Alcotest.failf "ws-regular: %a" Ws_check.verdict_pp v);
    test "message conservation: sent = delivered + in_flight" (fun () ->
        let r =
          ok_or_fail
            (Net_scenario.concurrent_reads
               ~protocol:(Net_scenario.abd ~write_back:true) ~p:p_net
               ~rounds:2 ~readers:2 ~crashes:1 ~duplication:true ~seed:13 ())
        in
        Alcotest.(check int)
          "conserved"
          (Net.sent r.net)
          (Net.delivered r.net + Net.in_flight r.net));
    test "crashes beyond f rejected" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (try
             ignore
               (Net_scenario.write_sequential ~p:p_net ~rounds:1 ~crashes:2
                  ~duplication:false ~seed:1 ());
             false
           with Invalid_argument _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "net scenarios with write-back are atomic under duplication and \
            crashes"
         ~count:40 arb_seed
         (fun seed ->
           let r =
             match
               Net_scenario.concurrent_reads
                 ~protocol:(Net_scenario.abd ~write_back:true) ~p:p_net
                 ~rounds:1 ~readers:2 ~crashes:(seed mod 2)
                 ~duplication:(seed mod 3 = 0) ~seed ()
             with
             | Ok r -> r
             | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
           in
           Regularity.is_atomic r.history));
  ]

let alg2_scenario_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "wire-level algorithm2 stays WS-Safe in net scenarios (crashes +             duplication)"
         ~count:40 arb_seed
         (fun seed ->
           match
             Net_scenario.write_sequential ~protocol:Net_scenario.alg2
               ~p:p_net ~rounds:2 ~crashes:(seed mod 2)
               ~duplication:(seed mod 3 = 0) ~seed ()
           with
           | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
           | Ok r -> Ws_check.is_ws_safe r.history));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"wire-level algorithm2 is WS-Regular with concurrent readers"
         ~count:30 arb_seed
         (fun seed ->
           match
             Net_scenario.concurrent_reads ~protocol:Net_scenario.alg2
               ~p:p_net ~rounds:1 ~readers:2 ~crashes:(seed mod 2)
               ~duplication:false ~seed ()
           with
           | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
           | Ok r -> Ws_check.is_ws_regular r.history));
  ]

(* CDS on the simulated network: the writers take turns, so every
   history is write-sequential and the WS-Regularity verdict must be
   [Holds], never [Vacuous] *)
let cds_holds (r : Net_scenario.result) =
  Ws_check.verdict_equal (Ws_check.check_ws_regular r.history) Ws_check.Holds

let cds_scenario_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "wire-level CDS is WS-Regular in net scenarios (crashes + \
            duplication)"
         ~count:40 arb_seed
         (fun seed ->
           match
             Net_scenario.write_sequential ~protocol:Net_scenario.cds
               ~p:p_net ~rounds:2 ~crashes:(seed mod 2)
               ~duplication:(seed mod 3 = 0) ~seed ()
           with
           | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
           | Ok r -> cds_holds r));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"wire-level CDS is WS-Regular with concurrent readers"
         ~count:30 arb_seed
         (fun seed ->
           match
             Net_scenario.concurrent_reads ~protocol:Net_scenario.cds
               ~p:p_net ~rounds:2 ~readers:2 ~crashes:(seed mod 2)
               ~duplication:(seed mod 3 = 0) ~seed ()
           with
           | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
           | Ok r -> cds_holds r));
  ]

(* --- wire fuzzing ---------------------------------------------------------- *)

let net_fuzz_tests =
  [
    test "abd and wire-algorithm2 fuzz clean" (fun () ->
        List.iter
          (fun protocol ->
            let o =
              Net_fuzz.run ~protocol ~p:p_net ~runs:12 ~seed:50 ()
            in
            Alcotest.(check int)
              (Fmt.str "%s clean" protocol.Net_scenario.name)
              0
              (o.ws_safe_violations + o.ws_regular_violations
              + o.liveness_failures))
          [
            Net_scenario.abd ~write_back:false;
            Net_scenario.abd ~write_back:true;
            Net_scenario.alg2;
          ]);
    test "fuzz outcome bookkeeping" (fun () ->
        let o =
          Net_fuzz.run ~protocol:Net_scenario.alg2 ~p:p_net ~runs:5 ~seed:1 ()
        in
        Alcotest.(check int) "runs" 5 o.runs;
        Alcotest.(check (option int)) "no bad seed" None o.first_bad_seed);
    test "wire-CDS fuzz clean" (fun () ->
        let o =
          Net_fuzz.run ~protocol:Net_scenario.cds ~p:p_net ~runs:12 ~seed:50 ()
        in
        Alcotest.(check int)
          "no violations" 0
          (o.ws_safe_violations + o.ws_regular_violations
         + o.liveness_failures));
  ]

let suites =
  [
    ("netsim:network", net_tests);
    ("netsim:abd", abd_tests);
    ("netsim:duplication", duplication_tests);
    ("netsim:random", random_tests);
    ("netsim:scenarios", scenario_tests);
    ("netsim:alg2-scenarios", alg2_scenario_tests);
    ("netsim:cds-scenarios", cds_scenario_tests);
    ("netsim:fuzz", net_fuzz_tests);
  ]
