(** The one registry of shared-memory emulations: every
    {!Regemu_core.Emulation.factory} the simulator-side tools (the
    [regemu] CLI, the DPOR search, the umbrella library) can name,
    keyed by [factory.name]. *)

val all : Regemu_core.Emulation.factory list
val find : string -> Regemu_core.Emulation.factory option
