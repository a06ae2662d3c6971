(** Algorithm 2 — the paper's upper-bound construction (Theorem 3) — on
    the fault-prone shared-memory simulator: {!Regemu_netsim.Alg2}
    instantiated over {!Regemu_netsim.Runtime.Shm}, so the emulation
    Table 1, the [Ad_i] adversary and the DPOR search run is the one
    the network simulator and the live cluster run.

    An [f]-tolerant, wait-free, WS-Regular [k]-register emulated from
    [kf + ceil(k/z)(f+1)] read/write registers placed by
    {!Regemu_bounds.Layout}, where [z = floor((n-(f+1))/f)].  A writer
    keeps its covering-discipline state {e across} high-level writes:
    on each write it triggers fresh writes only on the registers with
    none of its own writes pending, and when a covered register finally
    responds it immediately re-triggers a write of the current value
    (lines 29–34).  So a writer never has two of its own writes pending
    on one register and leaves at most [f] registers covered when a
    write returns — which is what defeats the adversarial environment
    of Definition 3 with only [f] spare registers per write quorum. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim

(** The factory; [expected_objects] is
    [Regemu_bounds.Formulas.register_upper_bound].  Registers are
    allocated set by set, so object [i] is the [i]-th cell of
    [Layout.cells]. *)
val factory : Emulation.factory

(** [factory.make] with a chosen placement — [Layout.Colocated] for the
    placement ablation. *)
val make :
  ?placement:Layout.placement ->
  Sim.t ->
  Params.t ->
  writers:Id.Client.t list ->
  Emulation.instance
