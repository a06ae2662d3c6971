(** Multi-writer ABD over max-registers: the [2f+1] upper bound of
    Table 1 for the max-register row — {!Regemu_netsim.Abd}
    instantiated over {!Regemu_netsim.Runtime.Shm}.

    One max-register per server on [2f+1] servers.  A write reads-max
    from a majority to pick a fresh timestamp and writes-max the
    timestamped value to a majority; a read reads-max from a majority
    and returns the payload of the maximum.  Pending stale write-max
    operations are harmless — write-max is monotone — so no covering
    discipline is needed and the object count is independent of [k]:
    exactly the separation from plain registers the paper proves. *)

val factory : Regemu_core.Emulation.factory

(** The factory named [name]; [write_back_reads] adds ABD's read
    write-back round ({!Abd_max_atomic}). *)
val factory_with :
  name:string -> write_back_reads:bool -> Regemu_core.Emulation.factory
