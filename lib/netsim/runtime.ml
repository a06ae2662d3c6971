(** The client-side runtime a message-passing algorithm is written
    against, so that each algorithm ({!Abd}, {!Alg2}, {!Cds}) is
    defined once and runs on both fabrics: the scripted simulator
    (through {!module-Net} below) and the live threaded cluster
    ([Regemu_live.Cluster], which satisfies {!S} as it is).

    Servers are named by their index.  The protocol code brackets every
    touch of client-side state in {!S.locked}; on the single-threaded
    simulator that is the identity. *)

open Regemu_objects

module type S = sig
  type t  (** the fabric *)

  type client

  (** What {!invoke} yields: a handle on the simulator, the result on
      the live cluster. *)
  type call

  val num_servers : t -> int
  val client_id : client -> Id.Client.t

  (** Allocate a plain register cell on a server (before any
      operation runs); returns its per-server index. *)
  val alloc_reg : t -> server:int -> int

  (** Run [f] with the client's protocol state protected. *)
  val locked : client -> (unit -> 'a) -> 'a

  (** [rpc t ~src server ~make ~handler] sends [make rid] to [server]
      under a fresh request id and registers the one-shot [handler] for
      its reply.  [sticky] asks the runtime to keep retransmitting the
      request after the current operation returns (Algorithm 2's
      covering writes); runtimes that never lose messages ignore it. *)
  val rpc :
    t ->
    src:client ->
    ?sticky:bool ->
    int ->
    make:(int -> Proto.payload) ->
    handler:(Proto.payload -> unit) ->
    unit

  (** Block until [pred] holds.  [need = (servers, required)] names the
      servers the awaited replies come from, for runtimes that fail
      fast when too few of them are reachable. *)
  val await : t -> client -> ?need:int list * int -> (unit -> bool) -> unit

  (** One quorum round: issue [make rid] to [replicas], await [quorum]
      replies, and return their fold. *)
  val quorum_round :
    t ->
    client ->
    quorum:int ->
    make:(int -> Proto.payload) ->
    fold:('a -> Proto.payload -> 'a) ->
    init:'a ->
    int list ->
    'a

  (** Record one high-level operation in the run's history around
      [body]. *)
  val invoke : t -> client -> Regemu_sim.Trace.hop -> (unit -> Value.t) -> call
end

(** The simulator instance: [locked] is the identity, [sticky] and
    [need] are ignored (messages are never lost), and [rpc] draws the
    request id, registers the handler, then sends — so message ids
    follow the order in which the protocol issues requests. *)
module Net :
  S with type t = Net.t and type client = Id.Client.t and type call = Net.call =
struct
  type t = Net.t
  type client = Id.Client.t
  type call = Net.call

  let num_servers = Net.num_servers
  let client_id c = c
  let alloc_reg t ~server = Net.alloc_reg t (Id.Server.of_int server)
  let locked _ f = f ()

  let rpc t ~src ?sticky:_ server ~make ~handler =
    let rid = Net.fresh_rid t in
    Net.on_reply t ~client:src ~rid handler;
    Net.send t ~from:src (Id.Server.of_int server) (make rid)

  let await _ _ ?need:_ pred = Net.wait_until pred

  let quorum_round t client ~quorum ~make ~fold ~init replicas =
    let count = ref 0 in
    let acc = ref init in
    List.iter
      (fun s ->
        rpc t ~src:client s ~make ~handler:(fun reply ->
            acc := fold !acc reply;
            incr count))
      replicas;
    Net.wait_until (fun () -> !count >= quorum);
    !acc

  let invoke t client hop body = Net.invoke t ~client hop body
end
