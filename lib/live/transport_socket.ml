(* The [Socket] backend: each server is a separate forked process
   speaking the length-prefixed binary {!Codec} over two Unix-domain
   stream sockets, one per direction (the framing is TCP-ready; only
   the dial here is process-local).  The child is nothing but a
   [Proto.store] stepped by frames on stdin, replying on stdout.

   The parent keeps a per-server slot.  A request leaves on the
   calling thread when the slot is idle: nothing queued for it, no
   bytes waiting for the kernel, the slot open, and no delay or slow
   link to apply.  The caller then takes the slot's write lock, draws
   the seeded request faults and makes one non-blocking [write] — no
   thread hand-off.  Otherwise the request joins the slot's MPSC
   outbox, and a writer thread drains the whole outbox into one buffer
   and one [write].  A reader thread reads replies in batches, decodes
   them and applies the reply-fault stream.  The child likewise reads
   in batches and sends the replies to everything one read brought in
   a single [write], just before it would block.

   The request socket is non-blocking on the parent side, so no client
   or reader thread ever waits on a child: a full kernel buffer (a
   short write or [EAGAIN]) leaves the rest of the frames in the
   slot's buffer, the writer thread waits for the socket and writes
   them, and every later request queues behind them.  Without this a
   reader thread writing a reply handler's request inline could block
   on a child that is itself blocked writing replies to that reader.

   Children are re-execed images of the current executable (the
   [REGEMU_SOCKET_SERVER] environment variable short-circuits [main]
   into {!child_check}), which sidesteps fork-without-exec hazards in
   a threaded parent.

   Crash injection is real: [set_server_up false] SIGKILLs the child
   and reaps it; messages already in its kernel buffer, or framed for
   it but not yet written, die with it (genuine message loss — the
   retry layer's job), while messages still in the outbox wait for the
   restart, like a mailbox to a crashed-but-reachable server.  A
   restart execs a fresh image, so the store always comes back empty:
   this backend is inherently amnesiac, whatever the configured
   recovery mode.

   Parent-side register allocations reach a live child via
   [Ensure_regs] control frames, framed ahead of any request sent
   after the parent's count has grown past what the child was told. *)

open Transport_intf

let env_server = "REGEMU_SOCKET_SERVER"
let env_regs = "REGEMU_SOCKET_REGS"

(* The child's first bytes on the wire.  Linked libraries are free to
   print to stdout at module-init time (qcheck-alcotest announces its
   seed, for one), and those prints land on the reply socket {e before}
   [child_check] can run — so the parent discards everything up to
   this preamble, and the child re-points fd 1 at stderr before
   serving so no later print (including at_exit channel flushes) can
   corrupt a frame. *)
let magic = "\xa5\x00regemu-sock/1\x00\x5a"

(* --- the child ----------------------------------------------------------- *)

let serve ~server ~regs =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* private dups of the two sockets, then route fd 1 — and with it
     the stdlib [stdout] channel — to stderr: stray prints must never
     interleave with frames *)
  let rx = Unix.dup Unix.stdin in
  let tx = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  ignore (Unix.write_substring tx magic 0 (String.length magic));
  let store = Regemu_netsim.Proto.store_create () in
  for _ = 1 to regs do
    ignore (Regemu_netsim.Proto.alloc_reg store)
  done;
  let ensure n =
    while Regemu_netsim.Proto.num_regs store < n do
      ignore (Regemu_netsim.Proto.alloc_reg store)
    done
  in
  let input = Codec.fd_reader rx in
  let output = Codec.writer tx in
  let rec loop () =
    (* the replies to everything the last read brought leave together,
       just before the next [next] would block in [read] *)
    if not (Codec.buffered input) then ignore (Codec.flush output);
    match Codec.next input with
    | None -> ()  (* parent closed the socket: clean shutdown *)
    | Some (Codec.Ensure_regs n) ->
        ensure n;
        loop ()
    | Some (Codec.Env env) ->
        List.iter
          (fun reply ->
            Codec.add output
              (Codec.Env
                 { src = server; dest = To_client env.src; payload = reply }))
          (Regemu_netsim.Proto.step store env.payload);
        loop ()
  in
  (* a SIGKILLed parent, a torn frame: either way the child just exits *)
  (try loop () with Codec.Malformed _ | Unix.Unix_error _ -> ());
  exit 0

(* Call first thing in [main] of any executable that may host this
   backend: a process spawned as a socket server serves and exits
   here, never reaching the caller's own logic. *)
let child_check () =
  match Sys.getenv_opt env_server with
  | None -> ()
  | Some sid ->
      let server = int_of_string sid in
      let regs =
        match Sys.getenv_opt env_regs with
        | Some r -> int_of_string r
        | None -> 0
      in
      serve ~server ~regs

(* --- the parent ---------------------------------------------------------- *)

type child = {
  pid : int;
  tx : Unix.file_descr;  (* requests to the child; non-blocking *)
  rx : Unix.file_descr;  (* replies from the child *)
  out : Codec.writer;  (* under the slot's [wm]: frames not yet written *)
  mutable regs : int;  (* under [wm]: registers the child knows of *)
}

type slot = {
  server : int;
  outq : envelope Mpsc.t;  (* requests waiting for the writer thread *)
  queued : int Atomic.t;  (* requests pushed to [outq] and not yet popped *)
  wm : Mutex.t;
      (* the write lock: held to draw from [wrng], to frame into the
         child's [out] and to write it, so the draws and the frames
         follow one order *)
  wrng : Regemu_sim.Rng.t;  (* under [wm]: request faults *)
  rrng : Regemu_sim.Rng.t;  (* reader-thread private: reply faults *)
  lrec : Sink.Trace.recorder option;
  child : child option Atomic.t;  (* [None] while crashed *)
  backlog : bool Atomic.t;  (* the child's [out] waits for the writer *)
  mutable writer : Thread.t option;
  mutable readers : Thread.t list;  (* one live + one exiting per restart *)
  rm : Mutex.t;  (* guards [readers] and [old_fds] *)
  mutable old_fds : Unix.file_descr list;  (* closed at [stop]: never
                                              reuse an fd a thread may
                                              still be blocked on *)
}

type t = {
  cfg : config;
  deliver : envelope -> unit;
  nservers : int;
  server_regs : int -> int;  (* parent-side register count, per server *)
  slots : slot array;
  state : net_state Atomic.t;
  up : bool Atomic.t array;
  stopped : bool Atomic.t;
  sent : int Atomic.t;
  duplicated : int Atomic.t;
  delayed : int Atomic.t;
  slowed : int Atomic.t;
  dropped : int Atomic.t;
  cut : int Atomic.t;
  delivered : int Atomic.t;
}

let create ?(sink = Sink.none) cfg ~servers ~deliver ~server_regs =
  validate_config cfg;
  if servers < 1 then invalid_arg "Transport.create: need >= 1 server";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    cfg;
    deliver;
    nservers = servers;
    server_regs;
    slots =
      Array.init servers (fun i ->
          {
            server = i;
            outq = Mpsc.create ();
            queued = Atomic.make 0;
            wm = Mutex.create ();
            wrng = Regemu_sim.Rng.create (cfg.seed + ((i + 1) * 0x9e3779b9));
            rrng = Regemu_sim.Rng.create (cfg.seed + ((i + 1) * 0x85ebca6b));
            lrec = Sink.recorder sink ~name:(Fmt.str "sock-s%d" i);
            child = Atomic.make None;
            backlog = Atomic.make false;
            writer = None;
            readers = [];
            rm = Mutex.create ();
            old_fds = [];
          });
    state = Atomic.make (initial_state cfg);
    up = Array.init servers (fun _ -> Atomic.make true);
    stopped = Atomic.make false;
    sent = Sink.counter sink ~help:"envelopes accepted for delivery" "transport.sent";
    duplicated = Sink.counter sink ~help:"envelopes duplicated in flight" "transport.duplicated";
    delayed = Sink.counter sink ~help:"envelopes held by a delivery delay" "transport.delayed";
    slowed = Sink.counter sink ~help:"envelopes held by a gray slow link" "transport.slowed";
    dropped = Sink.counter sink ~help:"envelopes lost to the drop rates" "transport.dropped";
    cut = Sink.counter sink ~help:"envelopes lost to a partition" "transport.cut";
    delivered = Sink.counter sink ~help:"envelopes handed to their destination" "transport.delivered";
  }

let msg_point slot name env =
  if Sink.sample_msg slot.lrec then
    Sink.instant slot.lrec ~cat:"msg" ~args:(env_args env) name

let spawn_child t slot =
  let req_parent, req_child =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let rep_parent, rep_child =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_nonblock req_parent;
  let regs = t.server_regs slot.server in
  let env =
    Array.append (Unix.environment ())
      [|
        Fmt.str "%s=%d" env_server slot.server;
        Fmt.str "%s=%d" env_regs regs;
      |]
  in
  (* the child's stdin and stdout are dups of the two child ends, made
     in the child; close-on-exec keeps them from leaking into any
     other child spawned meanwhile *)
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      env req_child rep_child Unix.stderr
  in
  Unix.close req_child;
  Unix.close rep_child;
  { pid; tx = req_parent; rx = rep_parent; out = Codec.writer req_parent; regs }

(* --- reader -------------------------------------------------------------- *)

(* discard the child's pre-[serve] stdout noise: scan for {!magic},
   sliding a window one byte at a time (a few dozen bytes at most) *)
let await_magic fd =
  let m = Bytes.of_string magic in
  let lm = Bytes.length m in
  let win = Bytes.create lm in
  let got = ref 0 in
  let scanned = ref 0 in
  let b = Bytes.create 1 in
  let rec rd () =
    match Unix.read fd b 0 1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd ()
    | n -> n
  in
  let rec go () =
    if !scanned > 65536 then
      raise (Codec.Malformed "no magic preamble from the server child");
    if rd () = 0 then
      raise (Codec.Malformed "eof before the server child's preamble");
    incr scanned;
    if !got < lm then begin
      Bytes.set win !got (Bytes.get b 0);
      incr got
    end
    else begin
      Bytes.blit win 1 win 0 (lm - 1);
      Bytes.set win (lm - 1) (Bytes.get b 0)
    end;
    if not (!got = lm && Bytes.equal win m) then go ()
  in
  go ()

let reader_loop t slot fd =
  let input = Codec.fd_reader fd in
  let rec loop () =
    match Codec.next input with
    | None -> ()  (* EOF: the child died or we are stopping *)
    | Some (Codec.Ensure_regs _) -> loop ()  (* children never send these *)
    | Some (Codec.Env env) ->
        let st = Atomic.get t.state in
        if not (reachable_of st ~server:env.src) then begin
          Atomic.incr t.cut;
          msg_point slot "cut" env
        end
        else if hit slot.rrng st.drop_replies then begin
          Atomic.incr t.dropped;
          msg_point slot "drop" env
        end
        else begin
          let slow_us = slow_of st ~server:env.src in
          if slow_us > 0 then begin
            Atomic.incr t.slowed;
            Thread.delay (float_of_int slow_us *. 1e-6)
          end;
          t.deliver env;
          Atomic.incr t.delivered;
          msg_point slot "recv" env
        end;
        loop ()
  in
  (* a SIGKILL mid-frame surfaces as a malformed tail — expected *)
  try
    await_magic fd;
    loop ()
  with Codec.Malformed _ | Unix.Unix_error _ -> ()

let add_reader t slot fd =
  Mutex.lock slot.rm;
  slot.readers <- Thread.create (fun () -> reader_loop t slot fd) () :: slot.readers;
  Mutex.unlock slot.rm

(* --- writing ------------------------------------------------------------- *)

let slot_gated t slot =
  (not (Atomic.get t.up.(slot.server)))
  || frozen_of (Atomic.get t.state) ~server:slot.server
  || Atomic.get slot.child = None

(* Draw [env]'s request faults from the slot's stream — once per
   request, under [wm].  [None] when the network loses it, else
   whether to send it twice and how long to hold it first, in us. *)
let draw t slot env =
  let st = Atomic.get t.state in
  if not (reachable_of st ~server:slot.server) then begin
    Atomic.incr t.cut;
    msg_point slot "cut" env;
    None
  end
  else if hit slot.wrng st.drop_requests then begin
    Atomic.incr t.dropped;
    msg_point slot "drop" env;
    None
  end
  else begin
    let dup = hit slot.wrng t.cfg.dup_prob in
    if dup then begin
      Atomic.incr t.sent;
      Atomic.incr t.duplicated;
      msg_point slot "dup" env
    end;
    let delay_us =
      if hit slot.wrng t.cfg.delay_prob && t.cfg.max_delay_us > 0 then begin
        Atomic.incr t.delayed;
        1 + Regemu_sim.Rng.int slot.wrng ~bound:t.cfg.max_delay_us
      end
      else 0
    in
    let slow_us = slow_of st ~server:slot.server in
    if slow_us > 0 then Atomic.incr t.slowed;
    Some (dup, delay_us + slow_us)
  end

(* Frame [env] (twice if [dup]) into the child's buffer; under [wm].
   Any parent-side register growth goes first, so the child can step
   a Reg_* request the parent just set up. *)
let frame t slot c env ~dup =
  let want = t.server_regs slot.server in
  if want > c.regs then begin
    Codec.add c.out (Codec.Ensure_regs want);
    c.regs <- want
  end;
  Codec.add c.out (Codec.Env env);
  if dup then Codec.add c.out (Codec.Env env)

(* Write what the kernel takes of the child's buffer; under [wm].
   [true] once nothing is left.  A dead or dying child loses the whole
   buffer, which the retry layer treats like any other loss. *)
let flush t c =
  try Codec.flush c.out
  with Unix.Unix_error _ ->
    Codec.discard c.out;
    Atomic.incr t.dropped;
    true

(* the most envelopes the writer frames before it writes *)
let batch_max = 512

(* Frame the outbox into [c]'s buffer, in pop order, until it is
   empty, the slot closes, [c] is no longer the slot's child or a
   batch is full; under [wm].  A drawn delay writes what is framed so
   far and holds the lock while it sleeps, so nothing overtakes the
   held request. *)
let drain t slot c =
  let open_to_c () =
    (not (slot_gated t slot))
    && match Atomic.get slot.child with Some c' -> c' == c | None -> false
  in
  let rec go n =
    if n < batch_max && (not (Atomic.get t.stopped)) && open_to_c () then
      match Mpsc.try_pop slot.outq with
      | None -> ()
      | Some env ->
          Atomic.decr slot.queued;
          (match draw t slot env with
          | None -> ()
          | Some (dup, delay_us) ->
              if delay_us > 0 then begin
                ignore (flush t c);
                Thread.delay (float_of_int delay_us *. 1e-6)
              end;
              frame t slot c env ~dup);
          go (n + 1)
  in
  go 0

(* block until the child's socket takes bytes again; the timeout
   re-checks [stop], and a dead child reads as writable *)
let await_writable c =
  try ignore (Unix.select [] [ c.tx ] [] 0.05)
  with Unix.Unix_error _ -> Thread.delay 0.001

let writer_loop t slot =
  let ready () =
    Atomic.get t.stopped || Atomic.get slot.backlog
    || ((not (Mpsc.is_empty slot.outq)) && not (slot_gated t slot))
  in
  while not (Atomic.get t.stopped) do
    if not (ready ()) then Mpsc.park slot.outq ~ready
    else begin
      Mutex.lock slot.wm;
      let blocked =
        match Atomic.get slot.child with
        | None -> None
        | Some c ->
            drain t slot c;
            if flush t c then None else Some c
      in
      Atomic.set slot.backlog (blocked <> None);
      Mutex.unlock slot.wm;
      Option.iter await_writable blocked
    end
  done

(* The idle-slot fast path: [true] when the request left on this
   thread (or was lost to a drawn fault), [false] when it must queue.
   Idle is checked under [wm], taken only if free: no request queued
   (the sender's own earlier ones included), no bytes waiting for the
   writer thread, the slot open, and no delay or slow link to apply. *)
let send_inline t slot env =
  t.cfg.delay_prob = 0.0
  && Atomic.get slot.queued = 0
  && Mutex.try_lock slot.wm
  &&
  let sent =
    match Atomic.get slot.child with
    | Some c
      when Atomic.get slot.queued = 0
           && (not (Atomic.get slot.backlog))
           && (not (slot_gated t slot))
           && slow_of (Atomic.get t.state) ~server:slot.server = 0 ->
        (match draw t slot env with
        | None -> ()
        | Some (dup, _) ->
            frame t slot c env ~dup;
            if not (flush t c) then begin
              Atomic.set slot.backlog true;
              Mpsc.wake slot.outq
            end);
        true
    | _ -> false
  in
  Mutex.unlock slot.wm;
  sent

(* --- lifecycle ----------------------------------------------------------- *)

let start t =
  Array.iter
    (fun slot ->
      let c = spawn_child t slot in
      Atomic.set slot.child (Some c);
      add_reader t slot c.rx;
      slot.writer <- Some (Thread.create (writer_loop t) slot))
    t.slots

let send t env =
  if not (Atomic.get t.stopped) then begin
    match env.dest with
    | To_server s when s >= 0 && s < t.nservers ->
        let slot = t.slots.(s) in
        Atomic.incr t.sent;
        msg_point slot "send" env;
        if not (send_inline t slot env) then begin
          Atomic.incr slot.queued;
          Mpsc.push slot.outq env
        end
    | To_server _ -> ()
    | To_client _ ->
        (* parent-local: only possible if a layer above loops a reply
           back through the transport — deliver directly *)
        Atomic.incr t.sent;
        t.deliver env;
        Atomic.incr t.delivered
  end

let check_server t what server =
  if server < 0 || server >= t.nservers then
    invalid_arg
      (Fmt.str "Transport.%s: server %d out of range [0,%d)" what server
         t.nservers)

let child_pid t ~server =
  check_server t "child_pid" server;
  Option.map (fun c -> c.pid) (Atomic.get t.slots.(server).child)

let kill_child slot =
  match Atomic.exchange slot.child None with
  | None -> ()
  | Some c ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
      (* the reader blocked on [c.rx] sees EOF and exits; the fds are
         parked until [stop] so their numbers cannot be reused under a
         thread still touching them *)
      Mutex.lock slot.rm;
      slot.old_fds <- c.tx :: c.rx :: slot.old_fds;
      Mutex.unlock slot.rm

let set_server_up t ~server v =
  check_server t "set_server_up" server;
  let slot = t.slots.(server) in
  if not v then begin
    Atomic.set t.up.(server) false;
    kill_child slot
  end
  else begin
    if Atomic.get slot.child = None && not (Atomic.get t.stopped) then begin
      let c = spawn_child t slot in
      Atomic.set slot.child (Some c);
      add_reader t slot c.rx
    end;
    Atomic.set t.up.(server) true;
    Mpsc.wake slot.outq
  end

(* --- hostile-network controls ------------------------------------------- *)

let update_state t f = Atomic.set t.state (f (Atomic.get t.state))

let split t ~groups ~clients_with =
  let h = groups_table ~groups ~clients_with in
  update_state t (fun st ->
      { st with groups = Some h; client_group = clients_with })

let heal t = update_state t (fun st -> { st with groups = None; client_group = 0 })

let set_drop t ?requests ?replies () =
  Option.iter (check_prob "requests") requests;
  Option.iter (check_prob "replies") replies;
  update_state t (fun st ->
      {
        st with
        drop_requests = Option.value ~default:st.drop_requests requests;
        drop_replies = Option.value ~default:st.drop_replies replies;
      })

let reachable t ~server = reachable_of (Atomic.get t.state) ~server

let set_slow t ~server us =
  check_server t "set_slow" server;
  if us < 0 then invalid_arg "Transport.set_slow: negative delay";
  update_state t (fun st ->
      { st with slow = with_cell st.slow t.nservers server us ~default:0 })

let slow_us t ~server =
  check_server t "slow_us" server;
  slow_of (Atomic.get t.state) ~server

let set_frozen t ~server v =
  update_state t (fun st ->
      { st with frozen = with_cell st.frozen t.nservers server v ~default:false });
  if not v then Mpsc.wake t.slots.(server).outq

let freeze t ~server =
  check_server t "freeze" server;
  set_frozen t ~server true

let thaw t ~server =
  check_server t "thaw" server;
  set_frozen t ~server false

let frozen t ~server =
  check_server t "frozen" server;
  frozen_of (Atomic.get t.state) ~server

let heal_gray t =
  update_state t (fun st -> { st with slow = [||]; frozen = [||] });
  Array.iter (fun slot -> Mpsc.wake slot.outq) t.slots

let stop t =
  Atomic.set t.stopped true;
  Array.iter (fun slot -> Mpsc.wake slot.outq) t.slots;
  Array.iter
    (fun slot ->
      Option.iter Thread.join slot.writer;
      slot.writer <- None)
    t.slots;
  (* kill the children so every reader unblocks on EOF *)
  Array.iter kill_child t.slots;
  Array.iter
    (fun slot ->
      Mutex.lock slot.rm;
      let readers = slot.readers and fds = slot.old_fds in
      slot.readers <- [];
      slot.old_fds <- [];
      Mutex.unlock slot.rm;
      List.iter Thread.join readers;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        fds)
    t.slots

let lanes t = t.nservers
let sent t = Atomic.get t.sent
let delivered t = Atomic.get t.delivered
let duplicated t = Atomic.get t.duplicated
let delayed t = Atomic.get t.delayed
let slowed t = Atomic.get t.slowed
let dropped t = Atomic.get t.dropped
let cut t = Atomic.get t.cut
