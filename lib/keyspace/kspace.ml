open Regemu_objects
open Regemu_live
open Regemu_netsim

type t = {
  cluster : Cluster.t;
  placement : Placement.t;
  f : int;
  write_back_reads : bool;
  klog : Klog.t;
}

type worker = { cl : Cluster.client; kw : Klog.writer }

let server_cells t =
  let n = Cluster.num_servers t.cluster in
  let mx = ref 0 and total = ref 0 in
  for s = 0 to n - 1 do
    let c = Cluster.server_num_keys t.cluster ~server:s in
    if c > !mx then mx := c;
    total := !total + c
  done;
  (!mx, !total)

let create cluster ~f ?(write_back_reads = false) () =
  let placement = Placement.create ~n:(Cluster.num_servers cluster) ~f in
  let t = { cluster; placement; f; write_back_reads; klog = Klog.create () } in
  let sink = Cluster.sink cluster in
  Sink.gauge_fn sink ~unit_:"cells"
    ~help:"per-key max-register cells resident across all servers"
    "keyspace.server_cells.total" (fun () -> snd (server_cells t));
  Sink.gauge_fn sink ~unit_:"cells"
    ~help:"per-key max-register cells on the fullest server"
    "keyspace.server_cells.max" (fun () -> fst (server_cells t));
  Sink.gauge_fn sink ~unit_:"bytes" ~help:"resident keyspace op log"
    "keyspace.klog.resident_bytes" (fun () -> Klog.approx_bytes t.klog);
  t

let cluster t = t.cluster
let placement t = t.placement
let klog t = t.klog

let new_worker t =
  let cl = Cluster.new_client t.cluster in
  { cl; kw = Klog.new_writer t.klog ~client:(Cluster.client_id cl) }

(* wrap an existing cluster client (a chaos-campaign thread that also
   runs single-register ops, say) as a keyspace worker *)
let worker_of t cl =
  { cl; kw = Klog.new_writer t.klog ~client:(Cluster.client_id cl) }

let worker_client w = w.cl

(* per-key quorum rounds over the key's replicas (all of them, or a
   health-biased hedged subset when the cluster has a hedge config) *)
let query_max t w ~key =
  Cluster.quorum_round t.cluster w.cl ~quorum:(t.f + 1)
    ~make:(fun rid -> Proto.Kquery { rid; key })
    ~init:Value.v0
    ~fold:(fun best reply ->
      match reply with
      | Proto.Kquery_reply { stored; _ } -> Value.max best stored
      | _ -> best)
    (Placement.replicas t.placement key)

let update t w ~key ts_val =
  Cluster.quorum_round t.cluster w.cl ~quorum:(t.f + 1)
    ~make:(fun rid -> Proto.Kupdate { rid; key; proposed = ts_val })
    ~init:() ~fold:(fun () _ -> ())
    (Placement.replicas t.placement key)

(* record the op in the klog; an Unavailable/Timeout escape aborts the
   cell (its effect may still land — the checker breaks the key) *)
let logged w ~key hop body =
  Cluster.begin_op w.cl;
  let ticket = Klog.invoke w.kw ~key hop in
  match body () with
  | v ->
      Klog.return ticket v;
      v
  | exception e ->
      Klog.abort ticket;
      raise e

let write t w ~key v =
  ignore
    (logged w ~key (Regemu_sim.Trace.H_write v) (fun () ->
         let latest = query_max t w ~key in
         update t w ~key (Value.with_ts (Value.ts latest + 1) v);
         Value.Unit))

let read t w ~key =
  logged w ~key Regemu_sim.Trace.H_read (fun () ->
      let latest = query_max t w ~key in
      if t.write_back_reads then update t w ~key latest;
      Value.payload latest)
