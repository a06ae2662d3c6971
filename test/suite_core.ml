(* Tests for the layout (Section 3.3 / Figure 1) and Algorithm 2. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

let test name f = Alcotest.test_case name `Quick f
let params k f n = Params.make_exn ~k ~f ~n

(* --- Layout --------------------------------------------------------- *)

let layout_for p = Layout.make p

let layout_props p =
  let layout = layout_for p in
  (* total size matches the upper-bound formula *)
  Alcotest.(check int)
    (Fmt.str "size at %a" Params.pp p)
    (Formulas.register_upper_bound p)
    (Layout.size layout);
  let sets = List.init (Layout.num_sets layout) (Layout.set layout) in
  (* within a set, registers sit on pairwise distinct servers *)
  List.iter
    (fun s ->
      let servers =
        Array.to_list s
        |> List.map (fun (c : Layout.cell) -> c.server)
        |> List.sort_uniq compare
      in
      Alcotest.(check int) "distinct servers" (Array.length s)
        (List.length servers))
    sets;
  (* every set size within [2f+1, n] *)
  List.iter
    (fun s ->
      let len = Array.length s in
      if len < (2 * p.Params.f) + 1 || len > p.Params.n then
        Alcotest.failf "set size %d outside [2f+1=%d, n=%d]" len
          ((2 * p.Params.f) + 1)
          p.Params.n)
    sets;
  (* Algorithm 2 allocates exactly the layout: object i is cell i, on
     the cell's server *)
  let sim = Sim.create ~n:p.Params.n () in
  let writers = List.init p.Params.k (fun _ -> Sim.new_client sim) in
  let objects = (Algorithm2.factory.make sim p ~writers).objects () in
  Alcotest.(check int) "objects" (Layout.size layout) (List.length objects);
  List.iter2
    (fun b (c : Layout.cell) ->
      Alcotest.(check int) "delta matches" c.server
        (Id.Server.to_int (Sim.delta sim b)))
    objects (Layout.cells layout)

let layout_tests =
  [
    test "figure 1 parameters: 25 registers in 5 disjoint sets" (fun () ->
        let p = params 5 2 6 in
        let layout = layout_for p in
        Alcotest.(check int) "sets" 5 (Layout.num_sets layout);
        Alcotest.(check int) "size" 25 (Layout.size layout);
        layout_props p);
    test "overflow set parameters" (fun () -> layout_props (params 5 2 10));
    test "minimum n" (fun () -> layout_props (params 4 1 3));
    test "saturated n" (fun () ->
        layout_props (params 3 2 (Formulas.saturation_n ~k:3 ~f:2)));
    test "writer slots map to sets by floor(slot/z)" (fun () ->
        let p = params 5 2 10 in
        (* z = 3: slots 0,1,2 -> set 0; slots 3,4 -> overflow set 1 *)
        let layout = layout_for p in
        List.iter
          (fun (slot, expect) ->
            Alcotest.(check int)
              (Fmt.str "slot %d" slot)
              expect
              (Layout.set_index_for_slot layout ~slot))
          [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 1) ]);
    test "slot out of range rejected" (fun () ->
        let layout = layout_for (params 2 1 3) in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Layout.set_index_for_slot layout ~slot:2);
             false
           with Invalid_argument _ -> true));
    test "server count mismatch rejected" (fun () ->
        let sim = Sim.create ~n:4 () in
        let writers = List.init 2 (fun _ -> Sim.new_client sim) in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Algorithm2.factory.make sim (params 2 1 3) ~writers);
             false
           with Invalid_argument _ -> true));
    test "spread: set i's register j is on server (i+j) mod n" (fun () ->
        let p = params 5 2 10 in
        List.iter
          (fun (c : Layout.cell) ->
            Alcotest.(check int)
              (Fmt.str "R_%d[%d]" c.set c.index)
              ((c.set + c.index) mod p.Params.n)
              c.server)
          (Layout.cells (layout_for p)));
    test "naive: one set of 2f+1 on servers 0..2f, shared by every writer"
      (fun () ->
        let p = params 5 2 10 in
        let layout = Layout.make ~placement:Layout.Naive p in
        Alcotest.(check int) "sets" 1 (Layout.num_sets layout);
        Alcotest.(check (list int)) "servers" [ 0; 1; 2; 3; 4 ]
          (List.map (fun (c : Layout.cell) -> c.server) (Layout.cells layout));
        Alcotest.(check int) "max load" 1 (Layout.max_load layout);
        List.iter
          (fun slot ->
            Alcotest.(check int) (Fmt.str "slot %d" slot) 0
              (Layout.set_index_for_slot layout ~slot))
          (List.init p.Params.k Fun.id));
    test "colocated: spread's set sizes, register j on server j/2 mod n"
      (fun () ->
        let p = params 5 2 10 in
        let spread = layout_for p in
        let colocated = Layout.make ~placement:Layout.Colocated p in
        Alcotest.(check int) "size" (Layout.size spread) (Layout.size colocated);
        Alcotest.(check (list int)) "set sizes"
          (List.init (Layout.num_sets spread) (fun i ->
               Array.length (Layout.set spread i)))
          (List.init (Layout.num_sets colocated) (fun i ->
               Array.length (Layout.set colocated i)));
        List.iter
          (fun (c : Layout.cell) ->
            Alcotest.(check int)
              (Fmt.str "R_%d[%d]" c.set c.index)
              (c.index / 2 mod p.Params.n)
              c.server)
          (Layout.cells colocated));
  ]

let gen_params =
  QCheck.Gen.(
    let* f = int_range 1 3 in
    let* k = int_range 1 8 in
    let* n = int_range ((2 * f) + 1) 15 in
    return (Params.make_exn ~k ~f ~n))

let arb_params =
  QCheck.make gen_params ~print:(fun p -> Fmt.str "%a" Params.pp p)

let layout_property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"layout invariants hold for random params"
         ~count:200 arb_params (fun p ->
           layout_props p;
           true));
  ]

(* --- Algorithm 2 ----------------------------------------------------- *)

let run_seq ?(read_after_each = true) ?(rounds = 1) ?(seed = 1) p =
  match
    Regemu_workload.Scenario.write_sequential Algorithm2.factory p
      ~read_after_each ~rounds ~seed ()
  with
  | Ok r -> r
  | Error e ->
      Alcotest.failf "scenario failed: %a" Regemu_workload.Scenario.error_pp e

let check_reads_see_last_write (r : Regemu_workload.Scenario.result) =
  match Regemu_history.Ws_check.check_ws_safe r.history with
  | Regemu_history.Ws_check.Holds -> ()
  | v ->
      Alcotest.failf "WS-Safe should hold: %a" Regemu_history.Ws_check.verdict_pp
        v

let algorithm2_tests =
  [
    test "single writer, write then read" (fun () ->
        let p = params 1 1 3 in
        let r = run_seq p in
        check_reads_see_last_write r;
        (* the read observed the written value *)
        let reads = Regemu_history.History.reads r.history in
        match reads with
        | [ rd ] ->
            Alcotest.(check bool)
              "read w0.r1" true
              (rd.result = Some (Value.Str "w0.r1"))
        | _ -> Alcotest.fail "expected exactly one read");
    test "figure 1 configuration, 2 rounds of 5 writers" (fun () ->
        let p = params 5 2 6 in
        let r = run_seq ~rounds:2 p in
        check_reads_see_last_write r);
    test "object usage never exceeds the upper-bound formula" (fun () ->
        List.iter
          (fun p ->
            let r = run_seq ~rounds:2 ~read_after_each:false p in
            if r.objects_used > Formulas.register_upper_bound p then
              Alcotest.failf "%a: used %d > bound %d" Params.pp p
                r.objects_used
                (Formulas.register_upper_bound p))
          [ params 1 1 3; params 3 1 5; params 5 2 6; params 4 2 12 ]);
    test "writes return ack" (fun () ->
        let p = params 2 1 4 in
        let r = run_seq ~read_after_each:false p in
        List.iter
          (fun (w : Regemu_history.History.op) ->
            Alcotest.(check bool) "ack" true (w.result = Some Value.Unit))
          (Regemu_history.History.writes r.history));
    test "unregistered writer rejected" (fun () ->
        let p = params 1 1 3 in
        let sim, instance, _ = Regemu_workload.Scenario.setup Algorithm2.factory p in
        let stranger = Sim.new_client sim in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (instance.write stranger (Value.Int 1));
             false
           with Invalid_argument _ -> true));
    test "wrong writer count rejected" (fun () ->
        let p = params 2 1 3 in
        let sim = Sim.create ~n:3 () in
        let w = Sim.new_client sim in
        Alcotest.(check bool)
          "raises" true
          (try
             ignore (Algorithm2.factory.make sim p ~writers:[ w ]);
             false
           with Invalid_argument _ -> true));
    test "a writer leaves at most f registers covered after each write"
      (fun () ->
        let p = params 3 2 8 in
        let sim, instance, writers =
          Regemu_workload.Scenario.setup Algorithm2.factory p
        in
        let policy = Policy.uniform (Rng.create 5) in
        List.iteri
          (fun slot w ->
            let call = instance.write w (Value.Str (Fmt.str "v%d" slot)) in
            ignore (Driver.finish_call_exn sim policy ~budget:50_000 call);
            let covered = Sim.covered_objects sim in
            if Id.Obj.Set.cardinal covered > p.Params.f * (slot + 1) then
              Alcotest.failf "after write %d: %d covered > %d" slot
                (Id.Obj.Set.cardinal covered)
                (p.Params.f * (slot + 1)))
          writers);
    test "read before any write returns v0" (fun () ->
        let p = params 1 1 3 in
        let sim, instance, _ = Regemu_workload.Scenario.setup Algorithm2.factory p in
        let reader = Sim.new_client sim in
        let call = instance.read reader in
        let v =
          Driver.finish_call_exn sim Policy.responds_first ~budget:10_000 call
        in
        Alcotest.(check bool) "v0" true (Value.equal v Value.v0));
  ]

let suites =
  [
    ("core:layout", layout_tests);
    ("core:layout-props", layout_property_tests);
    ("core:algorithm2", algorithm2_tests);
  ]
