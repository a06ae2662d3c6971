(** The register layout of the upper-bound construction (Section 3.3),
    as pure placement data: which server holds each register cell.  No
    substrate is involved — {!Regemu_netsim.Alg2} allocates the cells
    on whatever runtime it runs on, in the order {!cells} lists them,
    and the harness renders Figure 1 and the Theorem 6/7 loads from the
    same value.

    For parameters [(k, f, n)] the collection [R = {R_0, ..., R_{m-1}}]
    has pairwise-disjoint register sets, where [z = floor((n-(f+1))/f)]
    writers share each set, full sets have [y = zf + f + 1] registers,
    and the overflow set (when [z] does not divide [k]) has
    [(k mod z) f + f + 1].  Set [i]'s register [j] sits on server
    [(i+j) mod n], so the registers of one set are on pairwise distinct
    servers ([|delta(R_i)| = |R_i|]).  The total is exactly
    [Formulas.register_upper_bound]. *)

type placement =
  | Spread  (** the paper's layout: set [i]'s register [j] on [(i+j) mod n] *)
  | Colocated
      (** ablation of the distinct-servers requirement: same set sizes,
          but register [j] of every set on server [j/2 mod n], so two
          consecutive registers share a server and a single crash can
          take out several registers of a set.  No longer [f]-tolerant;
          for ablation experiments only. *)
  | Naive
      (** the strawman: one set of [2f+1] registers on servers
          [0 .. 2f], shared by every writer *)

(** One register cell: register [index] of set [set], on [server]. *)
type cell = { set : int; index : int; server : int }

type t

val make : ?placement:placement -> Params.t -> t

(** Number of register sets [m]. *)
val num_sets : t -> int

(** [set t i] is [R_i]. *)
val set : t -> int -> cell array

(** [set_index_for_slot t ~slot] is the index of the register set
    writer number [slot] (0-based) writes to: [slot / z] ([0] for
    {!Naive}). *)
val set_index_for_slot : t -> slot:int -> int

(** Every cell, set by set, in allocation order. *)
val cells : t -> cell list

(** The cells stored on server [s] (the layout's [delta^-1({s})]), in
    allocation order. *)
val on_server : t -> int -> cell list

(** Cells on the heaviest server — the per-server storage a layout
    needs (Theorem 7). *)
val max_load : t -> int

(** Total register count; {!Spread} and {!Colocated} give
    [Formulas.register_upper_bound]. *)
val size : t -> int
