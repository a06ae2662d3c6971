(** The client-side runtime a message-passing algorithm is written
    against, so that each algorithm ({!Abd}, {!Alg2}, {!Cds}) is
    defined once and runs on all three substrates: the scripted network
    simulator ({!module-Net} below), the fault-prone shared-memory
    simulator ({!Shm} below), and the live threaded cluster
    ([Regemu_live.Cluster], which satisfies {!S} as it is).

    Servers are named by their index.  The protocol code brackets every
    touch of client-side state in {!S.locked}; on the single-threaded
    simulators that is the identity. *)

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

(* One quorum round from an [rpc] that registers a reply handler and a
   [wait] that blocks on a predicate: issue every request in replica
   order, then wait for [quorum] replies — so request ids and low-level
   operations follow the order in which the protocol issues them. *)
let quorum_round ~rpc ~wait ~quorum ~make ~fold ~init replicas =
  let count = ref 0 in
  let acc = ref init in
  List.iter
    (fun s ->
      rpc s ~make ~handler:(fun reply ->
          acc := fold !acc reply;
          incr count))
    replicas;
  wait (fun () -> !count >= quorum);
  !acc

(** The network-simulator instance: [locked] is the identity, [sticky] and
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

  let quorum_round t client =
    quorum_round ~rpc:(fun s -> rpc t ~src:client s) ~wait:Net.wait_until

  let invoke t client hop body = Net.invoke t ~client hop body
end

(** The shared-memory instance, over the fault-prone simulator
    {!Regemu_sim.Sim}: every server-side cell is a base object, and a
    request is one low-level operation on it — [Reg_write]/[Reg_read]
    a register write/read, [Update]/[Query] a write-max/read-max on the
    server's max-register, [Cwrite] a write-max on one writer slot's
    max-register, and [Cquery] a read-max of every slot on the server,
    answered once all of them have responded.  [rpc] triggers the
    operation at once and hands its response to the handler rebuilt as
    the reply payload, so the environment's choice of when an operation
    responds is the network's choice of when a request is delivered.
    [locked] is the identity and [sticky]/[need] are ignored, as on
    {!module-Net}.

    Register cells are allocated by the algorithm ({!S.alloc_reg});
    max-registers and writer slots, which the other fabrics' servers
    hold built in, are allocated by whoever builds the emulation
    ({!alloc_max}, {!alloc_slots}) before any operation runs. *)
module Shm : sig
  include
    S with type client = Id.Client.t and type call = Regemu_sim.Sim.call

  val create : Regemu_sim.Sim.t -> t

  (** Allocate server [server]'s max-register, the target of
      [Update]/[Query]. *)
  val alloc_max : t -> server:int -> unit

  (** Allocate [slots] per-writer max-registers on [server], the
      targets of [Cwrite]/[Cquery]. *)
  val alloc_slots : t -> server:int -> slots:int -> unit

  (** Every base object allocated through this runtime, in allocation
      order. *)
  val objects : t -> Id.Obj.t list
end = struct
  module Sim = Regemu_sim.Sim

  type t = {
    sim : Sim.t;
    regs : Id.Obj.t array array;  (* per server; only the first [nregs] *)
    nregs : int array;
    maxregs : Id.Obj.t option array;
    slots : Id.Obj.t array array;
    mutable allocated : Id.Obj.t list;  (* newest first *)
    mutable next_rid : int;
  }

  type client = Id.Client.t
  type call = Sim.call

  let create sim =
    let n = Sim.num_servers sim in
    {
      sim;
      regs = Array.make n [||];
      nregs = Array.make n 0;
      maxregs = Array.make n None;
      slots = Array.make n [||];
      allocated = [];
      next_rid = 0;
    }

  let num_servers t = Sim.num_servers t.sim
  let client_id c = c
  let locked _ f = f ()
  let objects t = List.rev t.allocated

  let alloc t ~server kind =
    let b = Sim.alloc t.sim ~server:(Id.Server.of_int server) kind in
    t.allocated <- b :: t.allocated;
    b

  let alloc_reg t ~server =
    let b = alloc t ~server Base_object.Register in
    let i = t.nregs.(server) in
    if i = Array.length t.regs.(server) then begin
      let bigger = Array.make (max 4 (2 * i)) b in
      Array.blit t.regs.(server) 0 bigger 0 i;
      t.regs.(server) <- bigger
    end;
    t.regs.(server).(i) <- b;
    t.nregs.(server) <- i + 1;
    i

  let alloc_max t ~server =
    if t.maxregs.(server) <> None then
      invalid_arg "Runtime.Shm.alloc_max: already allocated";
    t.maxregs.(server) <- Some (alloc t ~server Base_object.Max_register)

  let alloc_slots t ~server ~slots =
    if t.slots.(server) <> [||] then
      invalid_arg "Runtime.Shm.alloc_slots: already allocated";
    t.slots.(server) <-
      Array.init slots (fun _ -> alloc t ~server Base_object.Max_register)

  let no_object what server =
    invalid_arg (Fmt.str "Runtime.Shm: no %s on server %d" what server)

  let reg t server reg =
    if reg < 0 || reg >= t.nregs.(server) then no_object "such register" server;
    t.regs.(server).(reg)

  let max_reg t server =
    match t.maxregs.(server) with
    | Some b -> b
    | None -> no_object "max-register" server

  let slot t server slot =
    if slot < 0 || slot >= Array.length t.slots.(server) then
      no_object "such writer slot" server;
    t.slots.(server).(slot)

  let rpc t ~src ?sticky:_ server ~make ~handler =
    let rid = t.next_rid in
    t.next_rid <- rid + 1;
    let trigger b op reply =
      ignore
        (Sim.trigger t.sim ~client:src b op ~on_response:(fun v ->
             handler (reply v)))
    in
    match make rid with
    | Proto.Reg_read { reg = r; _ } ->
        trigger (reg t server r) Base_object.Read (fun stored ->
            Proto.Reg_read_reply { rid; stored })
    | Proto.Reg_write { reg = r; proposed; _ } ->
        trigger (reg t server r) (Base_object.Write proposed) (fun _ ->
            Proto.Reg_write_reply { rid })
    | Proto.Query _ ->
        trigger (max_reg t server) Base_object.Max_read (fun stored ->
            Proto.Query_reply { rid; stored })
    | Proto.Update { proposed; _ } ->
        trigger (max_reg t server) (Base_object.Max_write proposed) (fun _ ->
            Proto.Update_reply { rid })
    | Proto.Cwrite { slot = i; proposed; _ } ->
        trigger (slot t server i) (Base_object.Max_write proposed) (fun _ ->
            Proto.Cwrite_reply { rid; slot = i })
    | Proto.Cquery _ ->
        let objs = t.slots.(server) in
        if objs = [||] then no_object "writer slots" server;
        let got = Array.make (Array.length objs) Value.v0 in
        let remaining = ref (Array.length objs) in
        Array.iteri
          (fun i b ->
            ignore
              (Sim.trigger t.sim ~client:src b Base_object.Max_read
                 ~on_response:(fun v ->
                   got.(i) <- v;
                   decr remaining;
                   if !remaining = 0 then
                     (* resident slots only, as a server reports them *)
                     handler
                       (Proto.Cquery_reply
                          {
                            rid;
                            slots =
                              List.filter
                                (fun (_, v) -> not (Value.equal v Value.v0))
                                (List.mapi (fun i v -> (i, v))
                                   (Array.to_list got));
                          }))))
          objs
    | p -> invalid_arg (Fmt.str "Runtime.Shm.rpc: %a" Proto.payload_pp p)

  let await _ _ ?need:_ pred = Sim.wait_until pred

  let quorum_round t client =
    quorum_round ~rpc:(fun s -> rpc t ~src:client s) ~wait:Sim.wait_until

  let invoke t client hop body = Sim.invoke t.sim ~client hop body
end
