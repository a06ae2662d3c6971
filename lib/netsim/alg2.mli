(** The paper's Algorithm 2 (the space-optimal register-based
    emulation) over message passing, written once over any
    {!Runtime.S}.

    Servers expose only read/write register cells ([Reg_read] /
    [Reg_write]); a delayed [Reg_write] {e request} is a covering write
    travelling the network — whenever it is finally delivered it
    overwrites the cell, exactly the erasure the paper's lower bound
    exploits.  The construction is the shared-memory Algorithm 2: the
    Section 3.3 layout sized by [kf + ceil(k/z)(f+1)] (set [i]'s
    register [j] on server [(i+j) mod n]), a per-writer covering
    discipline (never two of a writer's requests outstanding on one
    cell; re-send the current value when a stale acknowledgement
    finally arrives), quorum [|R_j| - f] per write, and collects over
    all cells of [n - f] servers.  WS-Regular, wait-free with at most
    [f] crashed servers.

    The optional [naive] mode drops the covering discipline and uses
    one cell per server ([2f+1] total) — the wire-level strawman that
    the deterministic schedule in the test suite breaks, showing the
    Figure 2 phenomenon needs nothing more exotic than a slow
    datagram.

    Instances: {!Alg2_net} on the simulator, [Regemu_live.Alg2_live]
    on the live cluster. *)

open Regemu_bounds
open Regemu_objects

module Make (R : Runtime.S) : sig
  type t

  (** [create rt p ~writers ()] allocates the layout's cells on [rt]'s
      servers (before any operation runs) and registers the [k] writer
      clients.  Requires [R.num_servers rt = p.n]. *)
  val create :
    R.t -> Params.t -> ?naive:bool -> writers:R.client list -> unit -> t

  (** Total register cells allocated. *)
  val cells : t -> int

  (** [write] requires a registered writer client. *)
  val write : t -> R.client -> Value.t -> R.call

  val read : t -> R.client -> R.call
end
