(* The [Domains] backend: each server's lane is an OCaml 5 [Domain.t]
   draining a lock-free MPSC ring ({!Mpsc}), plus one lane for
   client-bound replies.  A send is one atomic exchange — no mutex, no
   condvar, no courier handoff — and the lane's domain both applies
   the seeded fault stream and (for server lanes) executes the server
   itself: the delivering domain IS the server's execution context, so
   a request costs one cross-domain push and no thread handoff.

   Fault semantics match the courier backend with two documented
   differences: fault decisions (drop/dup/delay/reorder) are made by
   the consuming domain from its own seeded rng (same distribution,
   different interleaving — this backend is not DST-replayable), and a
   delivery delay is served in-lane, head-of-line, preserving
   per-destination FIFO instead of letting other couriers pass the
   held envelope.

   Crash gating: a server lane parks while its server is down
   ([set_server_up]) or frozen, so messages to a crashed-but-reachable
   server wait in the ring — the asynchronous model's treatment of
   crashes, same as the cluster-side backlog of the threaded backend. *)

open Transport_intf

type lane = {
  lserver : int option;  (* Some s: server [s]'s request lane *)
  q : envelope Mpsc.t;
  lrng : Regemu_sim.Rng.t;  (* consumer-domain private *)
  stash : envelope Ringbuf.t;  (* consumer-private batch/reorder buffer *)
  lrec : Sink.Trace.recorder option;
  mutable dom : unit Domain.t option;
}

type t = {
  cfg : config;
  deliver : envelope -> unit;
  nservers : int;
  lanes : lane array;  (* one per server + the client lane *)
  state : net_state Atomic.t;
  up : bool Atomic.t array;  (* per-server crash gate *)
  stopped : bool Atomic.t;
  quiet : bool;  (* no configured faults: replies may deliver inline *)
  sent : int Atomic.t;
  duplicated : int Atomic.t;
  delayed : int Atomic.t;
  slowed : int Atomic.t;
  dropped : int Atomic.t;
  cut : int Atomic.t;
  delivered : int Atomic.t;
}

(* how many envelopes a lane drains per wakeup *)
let batch_max = 32

let create ?(sink = Sink.none) cfg ~servers ~deliver =
  validate_config cfg;
  if servers < 1 then invalid_arg "Transport.create: need >= 1 server";
  let lane_name i =
    if i < servers then Fmt.str "lane-s%d" i else "lane-client"
  in
  {
    cfg;
    deliver;
    nservers = servers;
    lanes =
      Array.init (servers + 1) (fun i ->
          {
            lserver = (if i < servers then Some i else None);
            q = Mpsc.create ();
            lrng = Regemu_sim.Rng.create (cfg.seed + ((i + 1) * 0x9e3779b9));
            stash = Ringbuf.create ();
            lrec = Sink.recorder sink ~name:(lane_name i);
            dom = None;
          });
    state = Atomic.make (initial_state cfg);
    up = Array.init servers (fun _ -> Atomic.make true);
    stopped = Atomic.make false;
    quiet =
      (not cfg.reorder) && cfg.delay_prob = 0.0 && cfg.dup_prob = 0.0;
    sent = Sink.counter sink ~help:"envelopes accepted for delivery" "transport.sent";
    duplicated = Sink.counter sink ~help:"envelopes duplicated in flight" "transport.duplicated";
    delayed = Sink.counter sink ~help:"envelopes held by a delivery delay" "transport.delayed";
    slowed = Sink.counter sink ~help:"envelopes held by a gray slow link" "transport.slowed";
    dropped = Sink.counter sink ~help:"envelopes lost to the drop rates" "transport.dropped";
    cut = Sink.counter sink ~help:"envelopes lost to a partition" "transport.cut";
    delivered = Sink.counter sink ~help:"envelopes handed to their destination" "transport.delivered";
  }

let lane_for t dest =
  match dest with
  | To_server s when s >= 0 && s < t.nservers -> t.lanes.(s)
  | To_server _ | To_client _ -> t.lanes.(t.nservers)

let msg_point lane name env =
  if Sink.sample_msg lane.lrec then
    Sink.instant lane.lrec ~cat:"msg" ~args:(env_args env) name

(* a lane is gated while its server is crashed or frozen: it keeps
   accepting pushes but stops draining *)
let gated t lane =
  match lane.lserver with
  | None -> false
  | Some s ->
      (not (Atomic.get t.up.(s)))
      || frozen_of (Atomic.get t.state) ~server:s

(* deliver one envelope, applying the consumer-side fault stream *)
let process t lane st env =
  if not (reachable_of st ~server:(link_server env)) then begin
    Atomic.incr t.cut;
    msg_point lane "cut" env
  end
  else begin
    let drop_p =
      if Regemu_netsim.Proto.is_reply env.payload then st.drop_replies
      else st.drop_requests
    in
    if hit lane.lrng drop_p then begin
      Atomic.incr t.dropped;
      msg_point lane "drop" env
    end
    else begin
      let dup = hit lane.lrng t.cfg.dup_prob in
      if dup then begin
        Atomic.incr t.sent;
        Atomic.incr t.duplicated;
        msg_point lane "dup" env
      end;
      let copies = if dup then 2 else 1 in
      for _ = 1 to copies do
        let delay_us =
          if hit lane.lrng t.cfg.delay_prob && t.cfg.max_delay_us > 0 then begin
            Atomic.incr t.delayed;
            let d =
              1 + Regemu_sim.Rng.int lane.lrng ~bound:t.cfg.max_delay_us
            in
            if Sink.sample_msg lane.lrec then
              Sink.instant lane.lrec ~cat:"msg"
                ~args:(("delay_us", Sink.Event.I d) :: env_args env)
                "delay";
            d
          end
          else 0
        in
        let slow_us = slow_of st ~server:(link_server env) in
        if slow_us > 0 then begin
          Atomic.incr t.slowed;
          if Sink.sample_msg lane.lrec then
            Sink.instant lane.lrec ~cat:"msg"
              ~args:(("slow_us", Sink.Event.I slow_us) :: env_args env)
              "slow"
        end;
        let delay_us = delay_us + slow_us in
        (* head-of-line: the lane itself serves the delay *)
        if delay_us > 0 then Thread.delay (float_of_int delay_us *. 1e-6);
        t.deliver env;
        Atomic.incr t.delivered;
        msg_point lane "recv" env
      done
    end
  end

let lane_loop t lane =
  let ready () =
    Atomic.get t.stopped
    || ((not (Mpsc.is_empty lane.q)) && not (gated t lane))
  in
  while not (Atomic.get t.stopped) do
    if Mpsc.is_empty lane.q || gated t lane then Mpsc.park lane.q ~ready
    else begin
      (* drain a batch into the consumer-private stash, then deliver —
         in arrival order, or by seeded random pick under [reorder] *)
      let more = ref true in
      let n = ref 0 in
      while !more && !n < batch_max do
        match Mpsc.try_pop lane.q with
        | Some env ->
            Ringbuf.push lane.stash env;
            incr n
        | None -> more := false
      done;
      let st = Atomic.get t.state in
      while not (Ringbuf.is_empty lane.stash) do
        let len = Ringbuf.length lane.stash in
        let env =
          if t.cfg.reorder && len > 1 then
            Ringbuf.take_at lane.stash (Regemu_sim.Rng.int lane.lrng ~bound:len)
          else Ringbuf.pop lane.stash
        in
        process t lane st env
      done
    end
  done

let start t =
  Array.iter
    (fun lane -> lane.dom <- Some (Domain.spawn (fun () -> lane_loop t lane)))
    t.lanes

let send t env =
  if not (Atomic.get t.stopped) then begin
    Atomic.incr t.sent;
    let lane = lane_for t env.dest in
    msg_point lane "send" env;
    let inline_ok =
      t.quiet
      &&
      match env.dest with
      | To_server _ -> false  (* a server step must run in its lane's domain *)
      | To_client _ ->
          (* quiet config and quiet state: delivering on the sending
             domain skips the client-lane hop.  Replies from one server
             stay ordered (its lane delivers them sequentially); the
             rare queued-then-inline overtake after a heal only reorders
             replies, which every layer above already tolerates. *)
          let st = Atomic.get t.state in
          st.groups = None
          && st.drop_replies = 0.0
          && slow_of st ~server:env.src = 0
          && Mpsc.is_empty lane.q
    in
    if inline_ok then begin
      t.deliver env;
      Atomic.incr t.delivered;
      msg_point lane "recv" env
    end
    else Mpsc.push lane.q env
  end

(* --- crash gating ------------------------------------------------------- *)

let check_server t what server =
  if server < 0 || server >= t.nservers then
    invalid_arg
      (Fmt.str "Transport.%s: server %d out of range [0,%d)" what server
         t.nservers)

let set_server_up t ~server v =
  check_server t "set_server_up" server;
  Atomic.set t.up.(server) v;
  if v then Mpsc.wake t.lanes.(server).q

(* --- hostile-network controls ------------------------------------------ *)

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
  if not v then Mpsc.wake t.lanes.(server).q

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
  Array.iter (fun lane -> Mpsc.wake lane.q) t.lanes

let stop t =
  Atomic.set t.stopped true;
  Array.iter (fun lane -> Mpsc.wake lane.q) t.lanes;
  Array.iter
    (fun lane ->
      Option.iter Domain.join lane.dom;
      lane.dom <- None)
    t.lanes

let lanes t = Array.length t.lanes
let sent t = Atomic.get t.sent
let delivered t = Atomic.get t.delivered
let duplicated t = Atomic.get t.duplicated
let delayed t = Atomic.get t.delayed
let slowed t = Atomic.get t.slowed
let dropped t = Atomic.get t.dropped
let cut t = Atomic.get t.cut
