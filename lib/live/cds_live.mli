(** The CDS multi-writer data store ({!Regemu_netsim.Cds},
    arXiv:1508.03762) over a live {!Cluster} — the third live algorithm
    beside {!Abd_live} and {!Alg2_live}.  [k] registers on each of the
    [2f+1] replicas; no covering discipline. *)

open Regemu_objects

type t

(** Needs at least [2f+1] servers; uses the first [2f+1].  [writers]
    fixes the slot assignment: writer [i] of the list owns slot [i].
    At most 1024 writers. *)
val create :
  Cluster.t -> f:int -> writers:Cluster.client list -> unit -> t

val replicas : t -> int

(** Number of writer slots this emulation was created with. *)
val writer_slots : t -> int

(** Blocking; records the operation in the cluster history.  Raises
    [Invalid_argument] for a client not in [writers]. *)
val write : t -> Cluster.client -> Value.t -> unit

val read : t -> Cluster.client -> Value.t
