open Regemu_bounds
open Regemu_objects
open Regemu_core
open Regemu_netsim
module C = Cds.Make (Runtime.Shm)

let make sim (p : Params.t) ~writers =
  if List.length writers <> p.k then
    invalid_arg "Cds_max.make: writer count mismatch";
  if Regemu_sim.Sim.num_servers sim <> p.n then
    invalid_arg "Cds_max.make: server count mismatch";
  let rt = Runtime.Shm.create sim in
  for server = 0 to 2 * p.f do
    Runtime.Shm.alloc_slots rt ~server ~slots:p.k
  done;
  let cds = C.create rt ~f:p.f ~writers () in
  {
    Emulation.algo = "cds";
    kind = Base_object.Max_register;
    params = p;
    write = C.write cds;
    read = C.read cds;
    objects = (fun () -> Runtime.Shm.objects rt);
  }

let factory =
  {
    Emulation.name = "cds";
    obj_kind = Base_object.Max_register;
    expected_objects = Formulas.cds_cells;
    make;
  }
