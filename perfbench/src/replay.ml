(* Replays a workload's message mix through the layers a live run
   passes it through — [Proto.step], [Codec], [Ringbuf], [Mpsc],
   [Histlog] and [Placement] — and times each layer on its own.  The
   mix is the request stream the workload's algorithm sends for a
   sequence of operations, plus the replies [Proto.step] produces for
   it, so every layer sees the payload shapes and sizes of the run. *)

open Regemu_objects
module Proto = Regemu_netsim.Proto
module Transport = Regemu_live.Transport
module Codec = Regemu_live.Codec
module Ringbuf = Regemu_live.Ringbuf
module Mpsc = Regemu_live.Mpsc
module Histlog = Regemu_live.Histlog
module Placement = Regemu_keyspace.Placement
module Clock = Regemu_obs.Clock

type op = {
  client : int;
  hop : Regemu_sim.Trace.hop;
  key : int;  (** the keyed workloads' key; the op index otherwise *)
  requests : (int * Proto.payload) list;  (** (server, request) *)
}

type mix = {
  servers : int;
  stores : Proto.store array;
  ops : op array;
  envelopes : Transport.envelope array;  (** requests and their replies *)
}

let of_ops ~servers ~stores ops =
  let envelopes =
    Array.of_list
      (List.concat_map
         (fun op ->
           List.concat_map
             (fun (s, req) ->
               { Transport.src = op.client; dest = To_server s; payload = req }
               :: List.map
                    (fun p ->
                      { Transport.src = s; dest = To_client op.client; payload = p })
                    (Proto.step stores.(s) req))
             op.requests)
         (Array.to_list ops))
  in
  { servers; stores; ops; envelopes }

let value i = Value.with_ts (i + 1) (Value.Int i)

(* Algorithm 2: a write collects every cell, then writes each cell of
   its writer's register set; a read collects every cell.  [kinds]
   gives, per op, [Some writer] or [None] for a read. *)
let alg2 (p : Regemu_bounds.Params.t) kinds =
  let stores = Array.init p.n (fun _ -> Proto.store_create ()) in
  let sets =
    List.mapi
      (fun i size ->
        List.init size (fun j ->
            let s = (i + j) mod p.n in
            (s, Proto.alloc_reg stores.(s))))
      (Regemu_bounds.Formulas.set_sizes p)
  in
  let z = Regemu_bounds.Formulas.z p in
  let collect rid =
    List.concat_map
      (List.map (fun (s, reg) -> (s, Proto.Reg_read { rid; reg })))
      sets
  in
  let ops =
    Array.mapi
      (fun i kind ->
        match kind with
        | Some w ->
            let rset = List.nth sets (w / z) in
            {
              client = w;
              hop = H_write (Value.Int i);
              key = i;
              requests =
                collect i
                @ List.map
                    (fun (s, reg) ->
                      (s, Proto.Reg_write { rid = i; reg; proposed = value i }))
                    rset;
            }
        | None -> { client = p.k; hop = H_read; key = i; requests = collect i })
      kinds
  in
  of_ops ~servers:p.n ~stores ops

(* CDS: a write collects from the 2f+1 replicas and writes its own slot
   at all of them; a read collects *)
let cds ~f kinds =
  let servers = (2 * f) + 1 in
  let all req = List.init servers (fun s -> (s, req)) in
  let ops =
    Array.mapi
      (fun i kind ->
        match kind with
        | Some w ->
            {
              client = w;
              hop = H_write (Value.Int i);
              key = i;
              requests =
                all (Proto.Cquery { rid = i })
                @ all (Proto.Cwrite { rid = i; slot = w; proposed = value i });
            }
        | None ->
            { client = 0; hop = H_read; key = i; requests = all (Proto.Cquery { rid = i }) })
      kinds
  in
  of_ops ~servers ~stores:(Array.init servers (fun _ -> Proto.store_create ())) ops

(* keyed ABD: a write queries the key's 2f+1 replicas, then updates
   them; a read queries them *)
let keyed ~n ~f (sched : Openloop.op array) =
  let pl = Placement.create ~n ~f in
  let ops =
    Array.mapi
      (fun i (o : Openloop.op) ->
        let reps = Placement.replicas pl o.key in
        let q = List.map (fun s -> (s, Proto.Kquery { rid = i; key = o.key })) reps in
        if o.write then
          {
            client = i mod 2;
            hop = H_write (Value.Int i);
            key = o.key;
            requests =
              q
              @ List.map
                  (fun s -> (s, Proto.Kupdate { rid = i; key = o.key; proposed = value i }))
                  reps;
          }
        else { client = i mod 2; hop = H_read; key = o.key; requests = q })
      sched
  in
  of_ops ~servers:n ~stores:(Array.init n (fun _ -> Proto.store_create ())) ops

(* --- timing ----------------------------------------------------------- *)

let now () = Int64.to_int (Clock.now_ns ())

(* median over five batches of ns per item, a batch repeating [body]
   (which handles [items] items) until it has run [min_ns] *)
let ns_per ~min_ns ~items body =
  let one () =
    let t0 = now () in
    let reps = ref 0 in
    while now () - t0 < min_ns do
      body ();
      incr reps
    done;
    float_of_int (now () - t0) /. float_of_int (!reps * max 1 items)
  in
  body ();
  Pstats.median_float (List.init 5 (fun _ -> one ()))

(* the layers a workload's messages pass through *)
type layer = Proto_step | Codec | Ringbuf | Mpsc | Histlog | Placement

type layers = {
  msgs_per_op : float;
  requests_per_op : float;
  step_ns : float;
  encode_ns : float;
  decode_ns : float;
  codec_bytes_per_op : float;
  ringbuf_ns : float;
  mpsc_ns : float;
  handoff_ns : float;
  histlog_ns : float;
  histlog_bytes_per_op : float;
  placement_ns : float;
}

let handoff envs =
  let q = Mpsc.create () in
  let count = Array.length envs in
  let reps = max 1 (200_000 / max 1 count) in
  let total = reps * count in
  let t0 = now () in
  let producer =
    Domain.spawn (fun () ->
        for _ = 1 to reps do
          Array.iter (Mpsc.push q) envs
        done)
  in
  let got = ref 0 in
  while !got < total do
    match Mpsc.try_pop q with Some _ -> incr got | None -> Domain.cpu_relax ()
  done;
  let dt = now () - t0 in
  Domain.join producer;
  float_of_int dt /. float_of_int total

(* times the layers in [path] over [mix]; the others read 0 *)
let measure ~min_ns ~path mix =
  let on l f = if List.mem l path then f () else 0.0 in
  let nops = Array.length mix.ops in
  let envs = mix.envelopes in
  let nenv = Array.length envs in
  let reqs =
    Array.of_list (List.concat_map (fun o -> o.requests) (Array.to_list mix.ops))
  in
  let nreq = Array.length reqs in
  let ns_per = ns_per ~min_ns in
  let per_op x = float_of_int x /. float_of_int (max 1 nops) in
  let step_ns =
    on Proto_step (fun () ->
        ns_per ~items:nreq (fun () ->
            Array.iter (fun (s, p) -> ignore (Proto.step mix.stores.(s) p)) reqs))
  in
  let encoded = lazy (Array.map (fun e -> Codec.encode (Codec.Env e)) envs) in
  let encode_ns =
    on Codec (fun () ->
        ns_per ~items:nenv (fun () ->
            Array.iter (fun e -> ignore (Codec.encode (Codec.Env e))) envs))
  in
  let decode_ns =
    on Codec (fun () ->
        ns_per ~items:nenv (fun () ->
            Array.iter (fun s -> ignore (Codec.decode s)) (Lazy.force encoded)))
  in
  let codec_bytes_per_op =
    on Codec (fun () -> per_op (Array.fold_left (fun a s -> a + 4 + String.length s) 0 (Lazy.force encoded)))
  in
  let ringbuf_ns =
    on Ringbuf (fun () ->
        let rb = Ringbuf.create () in
        ns_per ~items:nenv (fun () ->
            Array.iter (Ringbuf.push rb) envs;
            while not (Ringbuf.is_empty rb) do
              ignore (Ringbuf.pop rb)
            done))
  in
  let mpsc_ns =
    on Mpsc (fun () ->
        let q = Mpsc.create () in
        ns_per ~items:nenv (fun () ->
            Array.iter (Mpsc.push q) envs;
            while Mpsc.try_pop q <> None do
              ()
            done))
  in
  let handoff_ns =
    on Mpsc (fun () -> Pstats.median_float (List.init 3 (fun _ -> handoff envs)))
  in
  let histlog_bytes = ref 0 in
  let histlog_ns =
    on Histlog (fun () ->
        ns_per ~items:nops (fun () ->
            let log = Histlog.create () in
            let ws =
              Array.init (Array.fold_left (fun a o -> max a (o.client + 1)) 1 mix.ops)
                (fun c -> Histlog.new_writer log ~client:(Id.Client.of_int c))
            in
            Array.iter
              (fun o ->
                let t = Histlog.invoke ws.(o.client) o.hop in
                Histlog.return t Value.Unit)
              mix.ops;
            histlog_bytes := Histlog.approx_bytes log))
  in
  let placement_ns =
    on Placement (fun () ->
        let pl = Placement.create ~n:(max 3 mix.servers) ~f:1 in
        ns_per ~items:nops (fun () ->
            Array.iter (fun o -> ignore (Placement.replicas pl o.key)) mix.ops))
  in
  {
    msgs_per_op = per_op nenv;
    requests_per_op = per_op nreq;
    step_ns;
    encode_ns;
    decode_ns;
    codec_bytes_per_op;
    ringbuf_ns;
    mpsc_ns;
    handoff_ns;
    histlog_ns;
    histlog_bytes_per_op = per_op !histlog_bytes;
    placement_ns;
  }

(* each layer's replayed cost per op, us, as the ledger adds them up: a
   lane and the codec carry every message, [Proto.step] serves every
   request, the log and the placement see each op once *)
let us_per_op r = function
  | Proto_step -> ("proto.step", r.step_ns *. r.requests_per_op /. 1e3)
  | Codec -> ("codec", (r.encode_ns +. r.decode_ns) *. r.msgs_per_op /. 1e3)
  | Ringbuf -> ("ringbuf", r.ringbuf_ns *. r.msgs_per_op /. 1e3)
  | Mpsc -> ("mpsc handoff", r.handoff_ns *. r.msgs_per_op /. 1e3)
  | Histlog -> ("histlog", r.histlog_ns /. 1e3)
  | Placement -> ("placement", r.placement_ns /. 1e3)
