(* Tests for the pluggable transport backends: the lock-free MPSC ring
   under the [Domains] backend, the interruptible Alarm, the binary
   codec of the [Socket] backend, and cluster-level smoke on both new
   fabrics. *)

open Regemu_objects
open Regemu_live
module Json = Regemu_obs.Json
module Proto = Regemu_netsim.Proto

let test name f = Alcotest.test_case name `Quick f

(* wait for a counter to reach [target] (lanes are asynchronous) *)
let settle ?(deadline_s = 5.0) read target =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if read () >= target then true
    else if Unix.gettimeofday () -. t0 > deadline_s then false
    else (
      Thread.delay 0.001;
      go ())
  in
  go ()

(* --- mpsc --------------------------------------------------------------- *)

let mpsc_tests =
  [
    test "single producer is FIFO" (fun () ->
        let q = Mpsc.create () in
        List.iter (Mpsc.push q) [ 1; 2; 3; 4; 5 ];
        let rec drain acc =
          match Mpsc.try_pop q with
          | Some v -> drain (v :: acc)
          | None -> List.rev acc
        in
        Alcotest.(check (list int)) "pop order" [ 1; 2; 3; 4; 5 ] (drain []);
        Alcotest.(check bool) "empty after drain" true (Mpsc.is_empty q);
        Alcotest.(check int) "pushed" 5 (Mpsc.pushed q);
        Alcotest.(check int) "popped" 5 (Mpsc.popped q));
    test "park blocks until a push wakes the consumer" (fun () ->
        let q = Mpsc.create () in
        let got = Atomic.make 0 in
        let consumer =
          Domain.spawn (fun () ->
              let stop () = Atomic.get got < 0 in
              let rec go () =
                if not (stop ()) then begin
                  (match Mpsc.try_pop q with
                  | Some v -> Atomic.set got v
                  | None ->
                      Mpsc.park q ~ready:(fun () ->
                          (not (Mpsc.is_empty q)) || stop ()));
                  if Atomic.get got = 0 then go ()
                end
              in
              go ())
        in
        Thread.delay 0.02;  (* give the consumer time to park *)
        Mpsc.push q 42;
        Alcotest.(check bool) "woken and delivered" true
          (settle (fun () -> Atomic.get got) 42);
        Domain.join consumer);
    (* The list-model property: against N concurrent domain producers,
       the single consumer pops every element exactly once, and each
       producer's elements come out in its own push order. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"mpsc: exactly-once + per-producer FIFO under domain producers"
         (QCheck.make
            QCheck.Gen.(
              pair (int_range 1 4) (int_range 0 60)
              >|= fun (producers, per) -> (producers, per)))
         (fun (producers, per) ->
           let q = Mpsc.create () in
           let doms =
             List.init producers (fun p ->
                 Domain.spawn (fun () ->
                     for i = 0 to per - 1 do
                       Mpsc.push q (p, i)
                     done))
           in
           let total = producers * per in
           let seen = Array.make producers [] in
           let n = ref 0 in
           let t0 = Unix.gettimeofday () in
           while !n < total && Unix.gettimeofday () -. t0 < 10.0 do
             match Mpsc.try_pop q with
             | Some (p, i) ->
                 seen.(p) <- i :: seen.(p);
                 incr n
             | None -> Domain.cpu_relax ()
           done;
           List.iter Domain.join doms;
           if !n <> total then
             QCheck.Test.fail_reportf "popped %d of %d" !n total;
           Array.iteri
             (fun p l ->
               let got = List.rev l in
               let want = List.init per Fun.id in
               if got <> want then
                 QCheck.Test.fail_reportf
                   "producer %d out of order (or lost/duplicated)" p)
             seen;
           Mpsc.is_empty q));
  ]

(* --- alarm -------------------------------------------------------------- *)

let alarm_tests =
  [
    test "wait times out on its own" (fun () ->
        let a = Alarm.create () in
        let t0 = Unix.gettimeofday () in
        Alarm.wait a 0.02;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "slept at least ~the period" true (dt >= 0.015);
        Alcotest.(check bool) "not rung" false (Alarm.rung a);
        Alarm.close a);
    test "ring interrupts a long wait and is sticky" (fun () ->
        let a = Alarm.create () in
        let ringer =
          Thread.create
            (fun () ->
              Thread.delay 0.02;
              Alarm.ring a)
            ()
        in
        let t0 = Unix.gettimeofday () in
        Alarm.wait a 10.0;
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) "woken well before the deadline" true (dt < 5.0);
        (* sticky: every later wait returns immediately *)
        let t1 = Unix.gettimeofday () in
        Alarm.wait a 10.0;
        Alcotest.(check bool) "rung wait is immediate" true
          (Unix.gettimeofday () -. t1 < 1.0);
        Alcotest.(check bool) "rung" true (Alarm.rung a);
        Thread.join ringer;
        Alarm.close a);
  ]

(* --- codec -------------------------------------------------------------- *)

let values =
  [
    Value.Unit;
    Value.Bool true;
    Value.Bool false;
    Value.Int 0;
    Value.Int (-1);
    Value.Int max_int;
    Value.Int min_int;
    Value.Str "";
    Value.Str "hello";
    Value.Str (String.make 300 '\xff');
    Value.Pair (Value.Int 7, Value.Str "x");
    Value.Pair (Value.Pair (Value.Bool true, Value.Unit), Value.Int 3);
  ]

let payloads =
  let v = Value.Pair (Value.Int 42, Value.Str "ts") in
  [
    Proto.Query { rid = 0 };
    Proto.Query { rid = max_int };
    Proto.Query_reply { rid = 1; stored = v };
    Proto.Update { rid = 2; proposed = v };
    Proto.Update_reply { rid = 3 };
    Proto.Reg_read { rid = 4; reg = 9 };
    Proto.Reg_read_reply { rid = 5; stored = Value.Str "r" };
    Proto.Reg_write { rid = 6; reg = 0; proposed = Value.Unit };
    Proto.Reg_write_reply { rid = 7 };
    Proto.Kquery { rid = 8; key = 11 };
    Proto.Kquery_reply { rid = 9; key = 12; stored = Value.Bool false };
    Proto.Kupdate { rid = 10; key = 13; proposed = v };
    Proto.Kupdate_reply { rid = 11; key = 14 };
  ]

let msgs =
  Codec.Ensure_regs 0 :: Codec.Ensure_regs 17
  :: List.concat_map
       (fun payload ->
         List.concat_map
           (fun dest ->
             [ Codec.Env { Transport_intf.src = 3; dest; payload } ])
           [ Transport_intf.To_server 1; Transport_intf.To_client 2 ])
       payloads
  @ List.map
      (fun stored ->
        Codec.Env
          {
            Transport_intf.src = 0;
            dest = Transport_intf.To_client 0;
            payload = Proto.Query_reply { rid = 99; stored };
          })
      values

let codec_tests =
  [
    test "every message round-trips byte-identically" (fun () ->
        List.iter
          (fun m ->
            let s = Codec.encode m in
            let m' = Codec.decode s in
            Alcotest.(check bool) "decode inverts encode" true (m = m');
            (* canonical: exactly one byte representation per message *)
            Alcotest.(check string) "re-encode is byte-identical" s
              (Codec.encode m'))
          msgs);
    test "truncated bodies are rejected at every cut point" (fun () ->
        let s =
          Codec.encode
            (Codec.Env
               {
                 Transport_intf.src = 1;
                 dest = Transport_intf.To_server 2;
                 payload =
                   Proto.Update
                     { rid = 5; proposed = Value.Pair (Value.Int 1, Value.Str "v") };
               })
        in
        for cut = 0 to String.length s - 1 do
          match Codec.decode (String.sub s 0 cut) with
          | exception Codec.Malformed _ -> ()
          | _ ->
              Alcotest.failf "truncation to %d bytes decoded as a message" cut
        done);
    test "garbage and trailing bytes are rejected" (fun () ->
        (match Codec.decode "\xde\xad\xbe\xef" with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "garbage tag decoded");
        (match Codec.decode "" with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "empty body decoded");
        let s = Codec.encode (Codec.Ensure_regs 3) in
        match Codec.decode (s ^ "\x00") with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "trailing byte accepted");
    test "framing: write_msg/read_msg over a pipe, EOF at a boundary"
      (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let sent = [ List.nth msgs 0; List.nth msgs 3; List.nth msgs 9 ] in
        List.iter (Codec.write_msg w) sent;
        Unix.close w;
        let got =
          List.map (fun _ -> Option.get (Codec.read_msg r)) sent
        in
        Alcotest.(check bool) "frames round-trip in order" true (sent = got);
        Alcotest.(check bool) "clean EOF is None" true
          (Codec.read_msg r = None);
        Unix.close r);
    test "framing: mid-frame EOF is Malformed" (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let s = Codec.encode (List.nth msgs 5) in
        (* a frame header promising more bytes than ever arrive *)
        let hdr = Bytes.create 4 in
        Bytes.set_int32_be hdr 0 (Int32.of_int (String.length s));
        ignore (Unix.write w hdr 0 4);
        ignore (Unix.write_substring w s 0 (String.length s / 2));
        Unix.close w;
        (match Codec.read_msg r with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "mid-frame EOF not rejected");
        Unix.close r);
  ]

(* --- domains transport --------------------------------------------------- *)

let query i = Proto.Query { rid = i }

let domains_config ~seed =
  { (Transport.default_config ~seed) with backend = Transport.Domains }

let domains_tests =
  [
    test "per-destination FIFO when reorder=false (mirror of the \
          sharded-lane test)" (fun () ->
        let per_dest : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
        let lock = Mutex.create () in
        let deliver (e : Transport.envelope) =
          Mutex.lock lock;
          let key =
            match e.dest with
            | Transport.To_server s -> s
            | Transport.To_client c -> 100 + c
          in
          let l =
            match Hashtbl.find_opt per_dest key with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace per_dest key l;
                l
          in
          l := Proto.rid_of e.payload :: !l;
          Mutex.unlock lock
        in
        let tr =
          Transport.create
            { (domains_config ~seed:5) with reorder = false }
            ~servers:3 ~deliver
        in
        Alcotest.(check bool) "domains backend selected" true
          (Transport.backend tr = Transport.Domains);
        Transport.start tr;
        let total = 300 in
        for i = 0 to total - 1 do
          let dest =
            if i mod 4 = 3 then Transport.To_client (i mod 2)
            else Transport.To_server (i mod 4)
          in
          Transport.send tr { Transport.src = 0; dest; payload = query i }
        done;
        Alcotest.(check bool) "all delivered" true
          (settle (fun () -> Transport.delivered tr) total);
        Transport.stop tr;
        Alcotest.(check int) "four lanes" 4 (Transport.lanes tr);
        Hashtbl.iter
          (fun _ l ->
            let got = List.rev !l in
            Alcotest.(check (list int)) "per-destination send order"
              (List.sort compare got) got)
          per_dest);
    test "a downed server's lane parks; restart releases the backlog"
      (fun () ->
        let delivered = Atomic.make 0 in
        let tr =
          Transport.create
            { (domains_config ~seed:6) with reorder = false }
            ~servers:2
            ~deliver:(fun _ -> Atomic.incr delivered)
        in
        Transport.start tr;
        Transport.set_server_up tr ~server:0 false;
        for i = 0 to 19 do
          Transport.send tr
            { Transport.src = 0; dest = Transport.To_server 0; payload = query i }
        done;
        Thread.delay 0.05;
        Alcotest.(check int) "nothing delivered while down" 0
          (Atomic.get delivered);
        (* the other lanes still flow *)
        Transport.send tr
          { Transport.src = 0; dest = Transport.To_server 1; payload = query 99 };
        Alcotest.(check bool) "other server unaffected" true
          (settle (fun () -> Atomic.get delivered) 1);
        Transport.set_server_up tr ~server:0 true;
        Alcotest.(check bool) "backlog released on restart" true
          (settle (fun () -> Atomic.get delivered) 21);
        Transport.stop tr);
  ]

(* --- cluster-level smoke on the new fabrics ------------------------------ *)

let run_spec backend ~chaos ~seed =
  Live_bench.run
    {
      (Live_bench.default_spec ~backend ~algo:Algo.Abd ~chaos ~seed ())
      with k = 1; readers = 2; ops_per_client = 40;
    }

let check_clean what (r : Checker.result) =
  if not (Checker.ok r) then
    Alcotest.failf "%s: checker found a violation: %a" what Checker.result_pp r

let cluster_tests =
  [
    test "domains: ABD with chaos completes clean" (fun () ->
        let o = run_spec Transport.Domains ~chaos:true ~seed:11 in
        check_clean "domains chaos" o.Live_bench.check;
        Alcotest.(check int) "every op completed" (3 * 40) o.Live_bench.ops;
        Alcotest.(check bool) "clean" true (Live_bench.clean o));
    test "socket: ABD quiet run completes clean over real processes"
      (fun () ->
        let o = run_spec Transport.Socket ~chaos:false ~seed:12 in
        check_clean "socket quiet" o.Live_bench.check;
        Alcotest.(check int) "every op completed" (3 * 40) o.Live_bench.ops;
        Alcotest.(check bool) "clean" true (Live_bench.clean o));
    test "socket: one crash/restart (a fresh amnesiac child) stays \
          WS-regular at f=1" (fun () ->
        (* one wiped server of three: every f+1 quorum still touches an
           unwiped copy, so ABD remains WS-regular — the single-crash
           case the socket fabric must survive.  (Repeated wipes of
           different servers would not be, which is why the socket
           smoke suite runs quiet.) *)
        let cfg =
          let base = Cluster.default_config ~n:3 ~seed:13 in
          {
            base with
            Cluster.transport =
              {
                base.Cluster.transport with
                Transport.backend = Transport.Socket;
                reorder = false;
              };
          }
        in
        let cluster = Cluster.create cfg in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        let checker = Checker.spawn cluster () in
        Abd_live.write abd w (Value.Str "pre-crash");
        Cluster.crash cluster 0;
        for i = 1 to 10 do
          Abd_live.write abd w (Value.Str (Printf.sprintf "during-%d" i));
          ignore (Abd_live.read abd r)
        done;
        Cluster.restart cluster 0;
        for i = 1 to 10 do
          ignore (Abd_live.read abd r);
          Abd_live.write abd w (Value.Str (Printf.sprintf "after-%d" i))
        done;
        let res = Checker.stop checker in
        Cluster.shutdown cluster;
        check_clean "socket crash/restart" res;
        Alcotest.(check int) "all 41 ops completed" 41
          (Cluster.stats cluster).Cluster.ops_completed);
  ]

(* --- regemu-bench/2 validation ------------------------------------------ *)

let bench_row extra =
  Json.Obj
    ([
       ("name", Json.Str "saturate/abd/threads/clients=2");
       ("measure", Json.Str "throughput");
       ("backend", Json.Str "threads");
       ("ns_per_run", Json.Float 1000.0);
     ]
    @ extra)

let bench_doc rows =
  Json.Obj
    [ ("schema", Json.Str "regemu-bench/2"); ("benchmarks", Json.List rows) ]

let schema_tests =
  [
    test "validate_bench_json accepts a minimal /2 document" (fun () ->
        match Live_bench.validate_bench_json (bench_doc [ bench_row [] ]) with
        | Ok () -> ()
        | Error m -> Alcotest.failf "rejected: %s" m);
    test "validate_bench_json rejects a lingering r_square" (fun () ->
        match
          Live_bench.validate_bench_json
            (bench_doc [ bench_row [ ("r_square", Json.Null) ] ])
        with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "r_square accepted in /2");
    test "validate_bench_json rejects an unknown backend" (fun () ->
        let row =
          Json.Obj
            [
              ("name", Json.Str "x");
              ("measure", Json.Str "throughput");
              ("backend", Json.Str "carrier-pigeon");
              ("ns_per_run", Json.Float 1.0);
            ]
        in
        match Live_bench.validate_bench_json (bench_doc [ row ]) with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "unknown backend accepted");
    test "validate_bench_json rejects the /1 schema id" (fun () ->
        let doc =
          Json.Obj
            [
              ("schema", Json.Str "regemu-bench/1");
              ("benchmarks", Json.List []);
            ]
        in
        match Live_bench.validate_bench_json doc with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "/1 accepted by the /2 validator");
  ]

let suites =
  [
    ("backend.mpsc", mpsc_tests);
    ("backend.alarm", alarm_tests);
    ("backend.codec", codec_tests);
    ("backend.domains", domains_tests);
    ("backend.cluster", cluster_tests);
    ("backend.schema", schema_tests);
  ]
