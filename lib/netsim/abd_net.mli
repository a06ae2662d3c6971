(** Multi-writer ABD ({!Abd}) on the simulated network: [2f+1] server
    processes of a {!Net}, each holding one stored value with write-max
    update semantics.  The test suite checks its runs with the same
    history checkers as the shared-memory emulations: WS-Regularity
    (and atomicity for the write-back variant), and wait-freedom while
    at most [f] servers crash — under arbitrary message reordering,
    since the network delivers in any order. *)

open Regemu_objects

type t

(** [create net ~f] uses servers [s0 .. s2f] of [net]; requires
    [Net.num_servers net >= 2f+1]. *)
val create : Net.t -> f:int -> ?write_back_reads:bool -> unit -> t

val write : t -> Id.Client.t -> Value.t -> Net.call
val read : t -> Id.Client.t -> Net.call

(** Messages sent per operation: 2 phases x (2f+1) requests (plus the
    replies as they arrive). *)
val replicas : t -> int
