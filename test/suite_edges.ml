(* Edge and error paths across the public APIs, plus focused unit tests
   for Algorithm 2's covering-discipline quorum write and for the
   shared-memory runtime's request-to-operation mapping. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

let test name f = Alcotest.test_case name `Quick f
let s0 = Id.Server.of_int 0

let raises f =
  try
    f ();
    false
  with Invalid_argument _ -> true

(* --- simulator error paths ------------------------------------------------ *)

let sim_edge_tests =
  [
    test "fire of a non-enabled step raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        let c = Sim.new_client sim in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> Sim.fire sim (Sim.Step c))));
    test "fire of an unknown response raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> Sim.fire sim (Sim.Respond (Id.Lop.of_int 7)))));
    test "respond on a crashed server raises even if forced" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        let l =
          Sim.trigger sim ~client:c b (Base_object.Write (Value.Int 1))
            ~on_response:ignore
        in
        Sim.crash_server sim s0;
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> Sim.fire sim (Sim.Respond l))));
    test "trigger by a crashed client raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        let b = Sim.alloc sim ~server:s0 Base_object.Register in
        let c = Sim.new_client sim in
        Sim.crash_client sim c;
        Alcotest.(check bool)
          "raises" true
          (raises (fun () ->
               ignore
                 (Sim.trigger sim ~client:c b Base_object.Read
                    ~on_response:ignore))));
    test "invoke on a crashed client raises" (fun () ->
        let sim = Sim.create ~n:1 () in
        let c = Sim.new_client sim in
        Sim.crash_client sim c;
        Alcotest.(check bool)
          "raises" true
          (raises (fun () ->
               ignore (Sim.invoke sim ~client:c Trace.H_read (fun () -> Value.Unit)))));
    test "peek/kind_of on unknown objects raise" (fun () ->
        let sim = Sim.create ~n:1 () in
        Alcotest.(check bool)
          "peek" true
          (raises (fun () -> ignore (Sim.peek sim (Id.Obj.of_int 3))));
        Alcotest.(check bool)
          "kind" true
          (raises (fun () -> ignore (Sim.kind_of sim (Id.Obj.of_int 3)))));
    test "Trace.get out of bounds raises" (fun () ->
        let tr = Trace.create () in
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Trace.get tr 0))));
    test "create with zero servers raises" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Sim.create ~n:0 ()))));
    test "Rng.pick on empty list raises" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Rng.pick (Rng.create 1) ([] : int list)))));
    test "Rng.int with non-positive bound raises" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Rng.int (Rng.create 1) ~bound:0))));
  ]

(* --- quorum write (the covering discipline, step by step) ------------------- *)

(* Algorithm 2 with one writer on three servers: one set of three
   registers, a write quorum of two *)
let qw_setup () =
  let sim = Sim.create ~n:3 () in
  let c = Sim.new_client sim in
  let inst =
    Algorithm2.factory.make sim (Params.make_exn ~k:1 ~f:1 ~n:3) ~writers:[ c ]
  in
  (sim, inst, Array.of_list (inst.objects ()), c)

let is_write (p : Sim.pending_info) =
  match p.op with Base_object.Write _ -> true | _ -> false

let writes_on sim r = List.filter is_write (Sim.pending_on sim r)

let respond_write_on sim r =
  match writes_on sim r with
  | p :: _ -> Sim.fire sim (Sim.Respond p.lid)
  | [] -> Alcotest.failf "no pending write on %a" Id.Obj.pp r

let step_writer sim =
  match List.find_opt (function Sim.Step _ -> true | _ -> false) (Sim.enabled sim) with
  | Some ev -> Sim.fire sim ev
  | None -> Alcotest.fail "fiber not runnable"

(* answer the write's collect, then step the writer into its quorum
   write *)
let finish_collect sim =
  List.iter
    (fun (p : Sim.pending_info) ->
      if p.op = Base_object.Read then Sim.fire sim (Sim.Respond p.lid))
    (Sim.pending sim);
  step_writer sim

let quorum_write_tests =
  [
    test "a write triggers on every register of its set" (fun () ->
        let sim, inst, regs, c = qw_setup () in
        ignore (inst.write c (Value.Int 1));
        finish_collect sim;
        Array.iter
          (fun r -> Alcotest.(check int) "one write" 1 (List.length (writes_on sim r)))
          regs);
    test "returns after exactly quorum acknowledgements" (fun () ->
        let sim, inst, regs, c = qw_setup () in
        let call = inst.write c (Value.Int 1) in
        finish_collect sim;
        respond_write_on sim regs.(0);
        Alcotest.(check bool) "not yet" false (Sim.call_returned call);
        respond_write_on sim regs.(1);
        step_writer sim;
        Alcotest.(check bool) "returned" true (Sim.call_returned call));
    test "second write skips covered registers and re-triggers on their \
          response" (fun () ->
        let sim, inst, regs, c = qw_setup () in
        let call1 = inst.write c (Value.Int 1) in
        finish_collect sim;
        (* acknowledge regs 0 and 1 only; reg 2 stays covered *)
        respond_write_on sim regs.(0);
        respond_write_on sim regs.(1);
        step_writer sim;
        Alcotest.(check bool) "call1 done" true (Sim.call_returned call1);
        Alcotest.(check int) "reg2 covered" 1 (List.length (writes_on sim regs.(2)));
        (* a new write: regs 0 and 1 get fresh triggers; reg 2 must NOT *)
        ignore (inst.write c (Value.Int 2));
        finish_collect sim;
        let pend_on r = List.length (writes_on sim r) in
        Alcotest.(check int) "reg0" 1 (pend_on regs.(0));
        Alcotest.(check int) "reg1" 1 (pend_on regs.(1));
        Alcotest.(check int) "reg2 still single" 1 (pend_on regs.(2));
        (* when reg2's old write finally responds, the current value is
           re-triggered immediately *)
        respond_write_on sim regs.(2);
        Alcotest.(check int) "reg2 re-triggered" 1 (pend_on regs.(2));
        match writes_on sim regs.(2) with
        | [ { op = Base_object.Write v; _ } ] ->
            Alcotest.(check bool)
              "carries the current value" true
              (Value.equal (Value.payload v) (Value.Int 2))
        | _ -> Alcotest.fail "expected one write");
  ]

(* --- Runtime.Shm (one request, one low-level operation) -------------------- *)

module Shm = Regemu_netsim.Runtime.Shm
module Proto = Regemu_netsim.Proto

let shm_setup n =
  let sim = Sim.create ~n () in
  (sim, Shm.create sim, Sim.new_client sim)

(* send [req] to [server] and keep its one reply *)
let shm_rpc t c server req =
  let got = ref None in
  Shm.rpc t ~src:c server ~make:req ~handler:(fun r -> got := Some r);
  got

let respond_all sim =
  List.iter (fun (p : Sim.pending_info) -> Sim.fire sim (Sim.Respond p.lid)) (Sim.pending sim)

let shm_tests =
  [
    test "requests to cells that were never allocated raise" (fun () ->
        let _, t, c = shm_setup 2 in
        ignore (Shm.alloc_reg t ~server:0);
        let send server req =
          raises (fun () -> ignore (shm_rpc t c server req))
        in
        Alcotest.(check bool) "register index past the last" true
          (send 0 (fun rid -> Proto.Reg_read { rid; reg = 1 }));
        Alcotest.(check bool) "no register on that server" true
          (send 1 (fun rid -> Proto.Reg_read { rid; reg = 0 }));
        Alcotest.(check bool) "no max-register" true
          (send 0 (fun rid -> Proto.Query { rid }));
        Alcotest.(check bool) "no writer slots" true
          (send 0 (fun rid -> Proto.Cquery { rid }));
        Alcotest.(check bool) "a reply is not a request" true
          (send 0 (fun rid -> Proto.Update_reply { rid })));
    test "max-register and writer slots are allocated once per server"
      (fun () ->
        let _, t, _ = shm_setup 1 in
        Shm.alloc_max t ~server:0;
        Shm.alloc_slots t ~server:0 ~slots:2;
        Alcotest.(check bool) "second max-register" true
          (raises (fun () -> Shm.alloc_max t ~server:0));
        Alcotest.(check bool) "second slot array" true
          (raises (fun () -> Shm.alloc_slots t ~server:0 ~slots:2)));
    test "objects lists every base object in allocation order" (fun () ->
        let sim, t, _ = shm_setup 3 in
        Alcotest.(check int) "first cell" 0 (Shm.alloc_reg t ~server:0);
        Shm.alloc_max t ~server:1;
        Shm.alloc_slots t ~server:2 ~slots:2;
        Alcotest.(check int) "second cell" 1 (Shm.alloc_reg t ~server:0);
        let objs = Shm.objects t in
        Alcotest.(check (list int)) "servers" [ 0; 1; 2; 2; 0 ]
          (List.map (fun b -> Id.Server.to_int (Sim.delta sim b)) objs);
        Alcotest.(check bool) "kinds" true
          (List.map (Sim.kind_of sim) objs
          = Base_object.
              [ Register; Max_register; Max_register; Max_register; Register ]);
        Alcotest.(check int) "nothing else in the simulator"
          (List.length (Sim.objects sim)) (List.length objs));
    test "a request replies only when its operation responds" (fun () ->
        let sim, t, c = shm_setup 1 in
        let r = Shm.alloc_reg t ~server:0 in
        let ack =
          shm_rpc t c 0 (fun rid ->
              Proto.Reg_write { rid; reg = r; proposed = Value.Int 4 })
        in
        Alcotest.(check int) "one pending write" 1 (List.length (Sim.pending sim));
        Alcotest.(check bool) "no reply yet" true (!ack = None);
        respond_all sim;
        (match !ack with
        | Some (Proto.Reg_write_reply { rid = 0 }) -> ()
        | _ -> Alcotest.fail "expected the write's reply under rid 0");
        let read = shm_rpc t c 0 (fun rid -> Proto.Reg_read { rid; reg = r }) in
        respond_all sim;
        match !read with
        | Some (Proto.Reg_read_reply { rid = 1; stored }) ->
            Alcotest.(check bool) "reads the write" true
              (Value.equal stored (Value.Int 4))
        | _ -> Alcotest.fail "expected the read's reply under rid 1");
    test "Cquery replies once every slot answered, resident slots only"
      (fun () ->
        let sim, t, c = shm_setup 1 in
        Shm.alloc_slots t ~server:0 ~slots:3;
        ignore
          (shm_rpc t c 0 (fun rid ->
               Proto.Cwrite { rid; slot = 1; proposed = Value.Int 5 }));
        respond_all sim;
        let q = shm_rpc t c 0 (fun rid -> Proto.Cquery { rid }) in
        let reads = Sim.pending sim in
        Alcotest.(check int) "one read-max per slot" 3 (List.length reads);
        List.iteri
          (fun i (p : Sim.pending_info) ->
            Alcotest.(check bool) (Fmt.str "no reply after %d" i) true (!q = None);
            Sim.fire sim (Sim.Respond p.lid))
          reads;
        match !q with
        | Some (Proto.Cquery_reply { slots = [ (1, v) ]; _ }) ->
            Alcotest.(check bool) "slot 1's value" true (Value.equal v (Value.Int 5))
        | _ -> Alcotest.fail "expected one resident slot");
    test "quorum_round returns the fold of exactly quorum replies" (fun () ->
        let sim, t, c = shm_setup 3 in
        List.iter (fun s -> Shm.alloc_max t ~server:s) [ 0; 1; 2 ];
        let call =
          Shm.invoke t c Trace.H_read (fun () ->
              Value.Int
                (Shm.quorum_round t c ~quorum:2
                   ~make:(fun rid -> Proto.Query { rid })
                   ~fold:(fun n _ -> n + 1) ~init:0 [ 0; 1; 2 ]))
        in
        let queries = Sim.pending sim in
        Alcotest.(check int) "a query to every replica" 3 (List.length queries);
        (match queries with
        | a :: b :: _ ->
            Sim.fire sim (Sim.Respond a.lid);
            Alcotest.(check bool) "one reply is not a quorum" true
              (not (List.mem (Sim.Step c) (Sim.enabled sim)));
            Sim.fire sim (Sim.Respond b.lid)
        | _ -> ());
        step_writer sim;
        Alcotest.(check bool) "two replies folded" true
          (match Sim.call_result call with
          | Some v -> Value.equal v (Value.Int 2)
          | None -> false));
  ]

(* --- formulas edge cases ----------------------------------------------------- *)

let formula_edge_tests =
  [
    test "ceil_div rejects non-positive divisor" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Formulas.ceil_div 1 0))));
    test "min_servers rejects non-positive capacity" (fun () ->
        Alcotest.(check bool)
          "raises" true
          (raises (fun () -> ignore (Formulas.min_servers ~k:1 ~f:1 ~capacity:0))));
    test "huge parameters stay exact (no overflow in practice range)"
      (fun () ->
        let p = Params.make_exn ~k:1000 ~f:10 ~n:10_000 in
        Alcotest.(check bool)
          "sane" true
          (Formulas.register_lower_bound p > 1000 * 10
          && Formulas.register_upper_bound p >= Formulas.register_lower_bound p));
    test "k=1 boundary: exactly one set" (fun () ->
        let p = Params.make_exn ~k:1 ~f:3 ~n:7 in
        Alcotest.(check int) "sets" 1 (Formulas.num_sets p);
        Alcotest.(check (list int)) "sizes" [ 7 ] (Formulas.set_sizes p));
  ]

let suites =
  [
    ("edges:sim", sim_edge_tests);
    ("edges:quorum-write", quorum_write_tests);
    ("edges:shm-runtime", shm_tests);
    ("edges:formulas", formula_edge_tests);
  ]
