(** The registry of live register algorithms: the one place that names
    them, predicts their space, and builds them on a {!Cluster}.  Every
    command, bench, and harness that lets the user pick an algorithm
    goes through here, so a new algorithm is one functor module plus
    one entry in this file. *)

type t =
  | Abd  (** multi-writer ABD ({!Abd_live}) *)
  | Abd_wb  (** ABD with read write-back — the atomic variant *)
  | Alg2  (** the paper's Algorithm 2 ({!Alg2_live}) *)
  | Cds  (** the CDS multi-writer data store ({!Cds_live}) *)

(** Every algorithm, in declaration order. *)
val all : t list

(** The canonical name: [abd], [abd-wb], [algorithm2], [cds]. *)
val name : t -> string

(** A canonical name, or one of the aliases [alg2] (Algorithm 2),
    [abd-max] (ABD) and [abd-max-atomic] (ABD with write-back) — the
    shared-memory emulation names of the same protocols. *)
val of_name : string -> t option

(** The paper-side prediction of the cluster-wide resident register
    cells with [k] writers, [f] tolerated crashes and [n] servers:
    [2f+1] for ABD, [kf + ⌈k/z⌉(f+1)] for Algorithm 2, [k(2f+1)] for
    CDS. *)
val cells : t -> k:int -> f:int -> n:int -> int

(** [start algo cluster ~f ~writers] builds [algo] on [cluster] (before
    {!Cluster.start}) with [k = List.length writers] writer clients and
    returns its [(write, read)] operations.  Algorithm 2 uses all
    {!Cluster.num_servers} servers; ABD and CDS the first [2f+1]. *)
val start :
  t ->
  Cluster.t ->
  f:int ->
  writers:Cluster.client list ->
  (Cluster.client -> Regemu_objects.Value.t -> unit)
  * (Cluster.client -> Regemu_objects.Value.t)
