(** Algorithm 2 ({!Alg2}) on the simulated network: the paper's
    register-based construction run against {!Net}'s network-attached
    register cells ({!Net.alloc_reg} / [Reg_read] / [Reg_write]), where
    a delayed [Reg_write] request is a covering write in flight. *)

open Regemu_bounds
open Regemu_objects

type t

(** [create net p ~writers] allocates the layout's cells on [net]'s
    servers.  [~naive:true] builds the 2f+1-cell strawman instead. *)
val create : Net.t -> Params.t -> ?naive:bool -> writers:Id.Client.t list -> unit -> t

(** Total register cells allocated. *)
val cells : t -> int

val write : t -> Id.Client.t -> Value.t -> Net.call
val read : t -> Id.Client.t -> Net.call
