(** The paper's Algorithm 2 ({!Regemu_netsim.Alg2}) over a live
    {!Cluster}, with blocking awaits in place of simulator fibers.  The
    covering writes are sticky RPCs: retransmitted until acknowledged,
    even after the operation that issued them has returned.
    WS-Regular, wait-free with at most [f] crashed servers. *)

open Regemu_bounds
open Regemu_objects

type t

(** [create cluster p ~writers ()] allocates the layout's register
    cells (call before {!Cluster.start}) and registers the [k] writer
    clients.  [naive] uses the unsafe 2f+1-cell strawman instead. *)
val create :
  Cluster.t -> Params.t -> ?naive:bool -> writers:Cluster.client list -> unit -> t

(** Total register cells allocated. *)
val cells : t -> int

(** Blocking; records the operation in the cluster history.  [write]
    requires a registered writer client. *)
val write : t -> Cluster.client -> Value.t -> unit

val read : t -> Cluster.client -> Value.t
