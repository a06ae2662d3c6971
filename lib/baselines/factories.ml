let all =
  [
    Regemu_core.Algorithm2.factory;
    Abd_max.factory;
    Abd_cas.factory;
    Abd_max_atomic.factory;
    Layered.factory;
    Naive_reg.factory;
    Waitall_reg.factory;
    Cds_max.factory;
  ]

let find name =
  List.find_opt (fun (f : Regemu_core.Emulation.factory) -> f.name = name) all
