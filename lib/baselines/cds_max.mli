(** The CDS reliable multi-writer data store (arXiv:1508.03762) on the
    fault-prone shared-memory simulator: {!Regemu_netsim.Cds}
    instantiated over {!Regemu_netsim.Runtime.Shm}, with one
    max-register per writer slot on each of the [2f+1] replicas —
    [k(2f+1)] base objects ({!Regemu_bounds.Formulas.cds_cells}),
    allocated replica by replica.  A collect is one read-max per slot
    of a replica, answered once every slot has responded. *)

val factory : Regemu_core.Emulation.factory
