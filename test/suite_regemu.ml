(* The umbrella library: everything reachable under one namespace, and
   the factory catalogue is complete and consistent. *)

let test name f = Alcotest.test_case name `Quick f

let umbrella_tests =
  [
    test "all_factories names are unique and resolvable" (fun () ->
        let names = List.map fst Regemu.all_factories in
        Alcotest.(check int)
          "unique" (List.length names)
          (List.length (List.sort_uniq compare names));
        Alcotest.(check bool) "has algorithm2" true
          (List.mem "algorithm2" names);
        Alcotest.(check bool) "has cds" true (List.mem "cds" names);
        Alcotest.(check int) "eight algorithms" 8 (List.length names));
    test "factory names match their Emulation.name" (fun () ->
        List.iter
          (fun (name, (f : Regemu.Emulation.factory)) ->
            Alcotest.(check string) "consistent" name f.name)
          Regemu.all_factories);
    test "a full write/read cycle through the umbrella namespace" (fun () ->
        let p = Regemu.Params.make_exn ~k:1 ~f:1 ~n:3 in
        let sim = Regemu.Sim.create ~n:p.n () in
        let w = Regemu.Sim.new_client sim in
        let reg = Regemu.Algorithm2.factory.make sim p ~writers:[ w ] in
        let policy = Regemu.Policy.uniform (Regemu.Rng.create 1) in
        ignore
          (Regemu.Driver.finish_call_exn sim policy ~budget:50_000
             (reg.write w (Regemu.Value.Int 9)));
        let v =
          Regemu.Driver.finish_call_exn sim policy ~budget:50_000
            (reg.read w)
        in
        Alcotest.(check bool) "9" true (Regemu.Value.equal v (Regemu.Value.Int 9)));
    test "checkers and formulas are reachable" (fun () ->
        let p = Regemu.Params.make_exn ~k:3 ~f:1 ~n:5 in
        Alcotest.(check bool)
          "bounds" true
          (Regemu.Formulas.register_lower_bound p
          <= Regemu.Formulas.register_upper_bound p);
        Alcotest.(check bool)
          "ws check on empty history" true
          (Regemu.Ws_check.is_ws_safe []));
    test "expected_objects of every factory is positive and >= 2f+1"
      (fun () ->
        let p = Regemu.Params.make_exn ~k:2 ~f:2 ~n:5 in
        List.iter
          (fun (_, (f : Regemu.Emulation.factory)) ->
            let e = f.expected_objects p in
            if e < (2 * p.Regemu.Params.f) + 1 then
              Alcotest.failf "%s promises %d < 2f+1" f.name e)
          Regemu.all_factories);
  ]

(* Lemma 2's invariants also hold when the reusable Ad_i policy (not
   the bespoke Lemma 1 driver) schedules the run. *)
let monitor_under_policy_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"Lemma 2 invariants hold under the reusable Ad_i policy"
         ~count:25
         (QCheck.make QCheck.Gen.(int_range 0 1_000_000) ~print:string_of_int)
         (fun seed ->
           let open Regemu in
           let p = Params.make_exn ~k:2 ~f:1 ~n:4 in
           let sim = Sim.create ~n:p.n () in
           let writers = List.init p.k (fun _ -> Sim.new_client sim) in
           let inst = Algorithm2.factory.make sim p ~writers in
           let f_set =
             Id.Server.set_of_list
               [ Id.Server.of_int (p.n - 1); Id.Server.of_int (p.n - 2) ]
           in
           let adi = Adi_policy.create sim ~f_set ~rng:(Rng.create seed) in
           let base = Adi_policy.policy adi in
           (* monitor an epoch of our own alongside the policy's *)
           let ok = ref true in
           List.iteri
             (fun i w ->
               let state =
                 Epoch_state.start sim ~f_set
                   ~completed_clients:
                     (Id.Client.set_of_list
                        (List.filteri (fun j _ -> j < i) writers))
               in
               let snapshot = ref Lemma2.initial in
               let monitored =
                 {
                   Policy.name = "monitored";
                   choose =
                     (fun s e ->
                       Epoch_state.advance state;
                       (match Lemma2.check state ~prev:!snapshot with
                       | Ok snap -> snapshot := snap
                       | Error _ -> ok := false);
                       base.Policy.choose s e);
                 }
               in
               ignore
                 (Driver.finish_call_exn sim monitored ~budget:100_000
                    (inst.write w (Value.Int i))))
             writers;
           !ok));
  ]

let suites =
  [
    ("regemu:umbrella", umbrella_tests);
    ("regemu:monitored-policy", monitor_under_policy_tests);
  ]
