(** Multi-writer ABD — the original message-passing protocol the
    paper's [2f+1] upper bounds descend from (its reference [5],
    multi-writer form per [22, 34, 29]) — written once over any
    {!Runtime.S}.

    Uses servers [0 .. 2f], each holding one stored value with
    write-max update semantics.  A write queries the servers for the
    highest timestamp and waits for [f+1] replies, then updates them
    with a fresh higher one and waits for [f+1] acks; a read performs
    the query round and, with [write_back_reads] (the atomic variant),
    also the update round before returning.  WS-Regular (atomic with
    write-back) and wait-free while at most [f] servers crash.

    Instances: {!Abd_net} on the simulator, [Regemu_live.Abd_live] on
    the live cluster. *)

open Regemu_objects

module Make (R : Runtime.S) : sig
  type t

  (** Requires [R.num_servers rt >= 2f+1]; uses the first [2f+1]. *)
  val create : R.t -> f:int -> ?write_back_reads:bool -> unit -> t

  (** Servers contacted per round: [2f+1]. *)
  val replicas : t -> int

  val write : t -> R.client -> Value.t -> R.call
  val read : t -> R.client -> R.call
end
