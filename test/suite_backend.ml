(* Tests for the pluggable transport backends: the lock-free MPSC ring
   under the [Domains] backend, the interruptible Alarm, the binary
   codec of the [Socket] backend and its buffered framing,
   cluster-level smoke on both new fabrics, and the socket fabric's
   non-blocking sends and end-of-run cleanup. *)

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

(* the framed bytes of [ms], back to back *)
let frames ms =
  String.concat ""
    (List.map
       (fun m ->
         let body = Codec.encode m in
         let hdr = Bytes.create 4 in
         Bytes.set_int32_be hdr 0 (Int32.of_int (String.length body));
         Bytes.to_string hdr ^ body)
       ms)

(* a byte source over [s] giving at most [chunk] bytes a read, and
   the number of reads made of it *)
let source ?(chunk = max_int) s =
  let pos = ref 0 and reads = ref 0 in
  let read b off len =
    incr reads;
    let n = min (min chunk len) (String.length s - !pos) in
    Bytes.blit_string s !pos b off n;
    pos := !pos + n;
    n
  in
  (read, reads)

(* every frame up to the clean EOF *)
let drain r =
  let rec go acc =
    match Codec.next r with None -> List.rev acc | Some m -> go (m :: acc)
  in
  go []

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
    test "framing: writer/fd_reader over a pipe, EOF at a boundary"
      (fun () ->
        let r, w = Unix.pipe ~cloexec:true () in
        let sent = [ List.nth msgs 0; List.nth msgs 3; List.nth msgs 9 ] in
        let out = Codec.writer w in
        List.iter (Codec.add out) sent;
        Alcotest.(check bool) "flushed" true (Codec.flush out);
        Unix.close w;
        let rd = Codec.fd_reader r in
        let got = List.map (fun _ -> Option.get (Codec.next rd)) sent in
        Alcotest.(check bool) "frames round-trip in order" true (sent = got);
        Alcotest.(check bool) "clean EOF is None" true (Codec.next rd = None);
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
        (match Codec.next (Codec.fd_reader r) with
        | exception Codec.Malformed _ -> ()
        | _ -> Alcotest.fail "mid-frame EOF not rejected");
        Unix.close r);
    test "buffered reader: frames fed one byte at a time" (fun () ->
        let read, reads = source ~chunk:1 (frames msgs) in
        let r = Codec.reader read in
        Alcotest.(check bool) "every frame, in order" true (drain r = msgs);
        Alcotest.(check int) "one read per byte, plus EOF"
          (String.length (frames msgs) + 1)
          !reads);
    test "buffered reader: many frames from one read" (fun () ->
        let read, reads = source (frames msgs) in
        let r = Codec.reader read in
        Alcotest.(check bool) "first frame" true
          (Codec.next r = Some (List.hd msgs));
        Alcotest.(check int) "one read so far" 1 !reads;
        Alcotest.(check bool) "the rest is buffered" true (Codec.buffered r);
        Alcotest.(check bool) "the rest, in order" true
          (drain r = List.tl msgs);
        Alcotest.(check int) "one read for every frame, one for EOF" 2 !reads);
    test "buffered reader: a frame larger than the buffer" (fun () ->
        let big =
          Codec.Env
            {
              Transport_intf.src = 1;
              dest = Transport_intf.To_client 4;
              payload =
                Proto.Query_reply { rid = 8; stored = Value.Str (String.make 5000 'v') };
            }
        in
        let sent = [ List.nth msgs 3; big; List.nth msgs 4 ] in
        let read, _ = source ~chunk:700 (frames sent) in
        Alcotest.(check bool) "frames round-trip through a 16-byte start" true
          (drain (Codec.reader ~size:16 read) = sent));
    test "buffered reader: clean EOF at a frame boundary is None" (fun () ->
        let read, _ = source "" in
        Alcotest.(check bool) "empty input" true
          (Codec.next (Codec.reader read) = None);
        let read, _ = source ~chunk:3 (frames [ List.nth msgs 2 ]) in
        let r = Codec.reader read in
        Alcotest.(check bool) "the frame" true
          (Codec.next r = Some (List.nth msgs 2));
        Alcotest.(check bool) "then None" true (Codec.next r = None);
        Alcotest.(check bool) "and None again" true (Codec.next r = None));
    test "buffered reader: mid-frame EOF is Malformed" (fun () ->
        let s = frames [ List.nth msgs 1; List.nth msgs 5 ] in
        (* every cut inside the second frame, header included *)
        let first = String.length (frames [ List.nth msgs 1 ]) in
        for cut = first + 1 to String.length s - 1 do
          let read, _ = source ~chunk:5 (String.sub s 0 cut) in
          let r = Codec.reader read in
          Alcotest.(check bool) "first frame intact" true
            (Codec.next r = Some (List.nth msgs 1));
          match Codec.next r with
          | exception Codec.Malformed _ -> ()
          | _ -> Alcotest.failf "EOF after %d bytes not rejected" cut
        done);
    test "buffered writer: a peer that does not read never blocks flush"
      (fun () ->
        let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.set_nonblock a;
        let w = Codec.writer a in
        let big i =
          Codec.Env
            {
              Transport_intf.src = i;
              dest = Transport_intf.To_server 0;
              payload = Proto.Update { rid = i; proposed = Value.Str (String.make 4096 'x') };
            }
        in
        let count = 2000 in
        let sent = List.init count big in
        List.iter (Codec.add w) sent;
        Alcotest.(check bool) "8 MB outruns the socket buffer" false
          (Codec.flush w);
        let got = ref [] in
        let peer =
          Thread.create
            (fun () ->
              let r = Codec.fd_reader b in
              for _ = 1 to count do
                got := Option.get (Codec.next r) :: !got
              done)
            ()
        in
        while not (Codec.flush w) do
          ignore (Unix.select [] [ a ] [] 1.0)
        done;
        Thread.join peer;
        Unix.close a;
        Unix.close b;
        Alcotest.(check bool) "every frame arrives, in order" true
          (List.rev !got = sent));
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

(* --- socket fabric ---------------------------------------------------------- *)

let socket_cluster_cfg ~seed =
  let base = Cluster.default_config ~n:3 ~seed in
  {
    base with
    Cluster.transport =
      {
        base.Cluster.transport with
        Transport.backend = Transport.Socket;
        reorder = false;
      };
  }

let socket_tests =
  [
    test "socket: sends to a child that does not read never block, and \
          arrive in order once it reads" (fun () ->
        let got = ref [] and lock = Mutex.create () in
        let deliver (e : Transport.envelope) =
          Mutex.lock lock;
          got := Proto.rid_of e.payload :: !got;
          Mutex.unlock lock
        in
        let delivered () =
          Mutex.lock lock;
          let n = List.length !got in
          Mutex.unlock lock;
          n
        in
        let tr =
          Transport_socket.create
            {
              (Transport.default_config ~seed:3) with
              reorder = false;
              backend = Transport.Socket;
            }
            ~servers:1 ~deliver
            ~server_regs:(fun _ -> 0)
        in
        Transport_socket.start tr;
        let pid = Option.get (Transport_socket.child_pid tr ~server:0) in
        Unix.kill pid Sys.sigstop;
        (* 2000 frames of 4 KiB: far more than the socket buffers hold *)
        let count = 2000 in
        let proposed = Value.Str (String.make 4096 'x') in
        let sent = Atomic.make 0 in
        let sender =
          Thread.create
            (fun () ->
              for rid = 0 to count - 1 do
                Transport_socket.send tr
                  {
                    Transport.src = 0;
                    dest = Transport.To_server 0;
                    payload = Proto.Update { rid; proposed };
                  };
                Atomic.incr sent
              done)
            ()
        in
        let returned = settle ~deadline_s:10.0 (fun () -> Atomic.get sent) count in
        let early = delivered () in
        Unix.kill pid Sys.sigcont;
        Thread.join sender;
        Alcotest.(check bool) "every send returned while the child slept" true
          returned;
        Alcotest.(check bool) "the child had not answered them all" true
          (early < count);
        let all = settle ~deadline_s:20.0 delivered count in
        Transport_socket.stop tr;
        Alcotest.(check bool) "every reply arrives" true all;
        Alcotest.(check (list int)) "in send order"
          (List.init count Fun.id) (List.rev !got));
    test "socket: crash/restart and shutdown leave no child and no fd"
      (fun () ->
        let fds () = Array.length (Sys.readdir "/proc/self/fd") in
        let before = fds () in
        let cluster = Cluster.create (socket_cluster_cfg ~seed:14) in
        let abd = Abd_live.create cluster ~f:1 () in
        let w = Cluster.new_client cluster in
        let r = Cluster.new_client cluster in
        Cluster.start cluster;
        Abd_live.write abd w (Value.Int 0);
        Cluster.crash cluster 1;
        for i = 1 to 5 do
          Abd_live.write abd w (Value.Int i);
          ignore (Abd_live.read abd r)
        done;
        Cluster.restart cluster 1;
        for i = 6 to 10 do
          Abd_live.write abd w (Value.Int i);
          ignore (Abd_live.read abd r)
        done;
        Cluster.shutdown cluster;
        (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        | 0, _ -> Alcotest.fail "a server child is still running"
        | pid, _ -> Alcotest.failf "child %d was left unreaped" pid);
        Alcotest.(check int) "open fds back to the count before create"
          before (fds ()));
  ]

let suites =
  [
    ("backend.mpsc", mpsc_tests);
    ("backend.alarm", alarm_tests);
    ("backend.codec", codec_tests);
    ("backend.domains", domains_tests);
    ("backend.cluster", cluster_tests);
    ("backend.socket", socket_tests);
  ]
