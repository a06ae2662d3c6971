(** Multi-writer ABD ({!Regemu_netsim.Abd}) over a live {!Cluster},
    with blocking awaits in place of simulator fibers.  Wait-free with
    at most [f] crashed servers. *)

open Regemu_objects

type t

(** Needs at least [2f+1] servers; uses the first [2f+1]. *)
val create : Cluster.t -> f:int -> ?write_back_reads:bool -> unit -> t

val replicas : t -> int

(** Blocking; records the operation in the cluster history. *)
val write : t -> Cluster.client -> Value.t -> unit

val read : t -> Cluster.client -> Value.t
