(** The paper's Algorithm 2 (the space-optimal register-based
    emulation, Theorem 3), written once over any {!Runtime.S}.

    Servers expose only read/write register cells ([Reg_read] /
    [Reg_write]); a delayed [Reg_write] {e request} is a covering write
    — on the shared-memory fabric literally a pending low-level write,
    on a network a request still travelling — which overwrites the cell
    whenever it finally takes effect, exactly the erasure the paper's
    lower bound exploits.  The construction: the Section 3.3
    {!Regemu_bounds.Layout} sized by [kf + ceil(k/z)(f+1)] (set [i]'s
    register [j] on server [(i+j) mod n]), a per-writer covering
    discipline (never two of a writer's requests outstanding on one
    cell; when a write from an older submit is finally acknowledged,
    re-send the current value), quorum [|R_j| - f] per write, and
    collects over all cells of [n - f] servers.  WS-Regular, wait-free
    with at most [f] crashed servers.

    With [readers], every registered reader gets a register set of its
    own (the layout is sized for [k + r] slots) and a read writes the
    value it is about to return into it, under the same covering
    discipline, before returning — the reader write-back answer to the
    paper's closing question, atomic at a space cost linear in [r].

    The optional [naive] mode drops the covering discipline and uses
    the {!Regemu_bounds.Layout.Naive} placement ([2f+1] cells shared by
    every writer) — the wire-level strawman that the deterministic
    schedule in the test suite breaks, showing the Figure 2 phenomenon
    needs nothing more exotic than a slow datagram.

    Instances: {!Alg2_net} on the network simulator,
    [Regemu_core.Algorithm2] and [Regemu_baselines.Algorithm2_rwb] on
    the shared-memory simulator ({!Runtime.Shm}), and
    [Regemu_live.Alg2_live] on the live cluster. *)

open Regemu_bounds
open Regemu_objects

module Make (R : Runtime.S) : sig
  type t

  (** [create rt p ~writers ()] allocates the layout's cells on [rt]'s
      servers (set by set, before any operation runs) and registers the
      [k] writer clients, writer [i] on set [Layout.set_index_for_slot
      ~slot:i], then the [readers] on slots [k, k+1, ...].  [placement]
      (default [Spread]) is [Colocated] for the placement ablation.
      Requires [R.num_servers rt = p.n]. *)
  val create :
    R.t ->
    Params.t ->
    ?naive:bool ->
    ?placement:Layout.placement ->
    writers:R.client list ->
    ?readers:R.client list ->
    unit ->
    t

  (** Total register cells allocated. *)
  val cells : t -> int

  (** [write] requires a registered writer client. *)
  val write : t -> R.client -> Value.t -> R.call

  (** Any client may read; a registered reader writes back. *)
  val read : t -> R.client -> R.call
end
