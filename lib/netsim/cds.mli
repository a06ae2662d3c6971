(** The Chockler–Dobre–Shraer–Spiegelman reliable multi-writer data
    store (arXiv:1508.03762), written once over any {!Runtime.S} — a
    different point of the space/progress tradeoff from {!Abd} and
    {!Alg2}.

    Each of the [2f+1] replicas holds one base register {e per writer}
    (a slot, allocated on first touch), together forming the paper's
    layered [k]-writer max-register: a server applies write-max within
    a slot, and a collect returns every resident slot.  A write
    collects from a quorum of [f+1] to learn the largest timestamp,
    then writes [(seq+1, v)] into {e its own} slot at a quorum; a read
    collects from a quorum and returns the lexicographically largest
    timestamped value.  Timestamps embed the writer's slot index, so
    concurrent writers never tie.

    Both sides are wait-free with at most [f] crashed servers, and no
    covering discipline is needed — the price is [k] registers on
    every replica ([(2f+1)k] total), against Algorithm 2's
    [kf + ⌈k/z⌉(f+1)] total and ABD's [2f+1] (one max-register each,
    but of unbounded domain).

    Instances: [Regemu_live.Cds_live] on the live cluster, and
    {!Net_scenario.cds} on the simulator. *)

open Regemu_objects

module Make (R : Runtime.S) : sig
  type t

  (** Needs at least [2f+1] servers; uses the first [2f+1].  [writers]
      fixes the slot assignment: writer [i] of the list owns slot [i].
      At most 1024 writers. *)
  val create : R.t -> f:int -> writers:R.client list -> unit -> t

  val replicas : t -> int

  (** Number of writer slots this emulation was created with. *)
  val writer_slots : t -> int

  (** Raises [Invalid_argument] for a client not in [writers]. *)
  val write : t -> R.client -> Value.t -> R.call

  val read : t -> R.client -> R.call
end
