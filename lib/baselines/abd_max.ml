open Regemu_bounds
open Regemu_objects
open Regemu_core
open Regemu_netsim
module A = Abd.Make (Runtime.Shm)

let factory_with ~name ~write_back_reads =
  let make sim (p : Params.t) ~writers =
    if List.length writers <> p.k then
      invalid_arg (name ^ ": writer count mismatch");
    if Regemu_sim.Sim.num_servers sim <> p.n then
      invalid_arg (name ^ ": server count mismatch");
    let rt = Runtime.Shm.create sim in
    for server = 0 to 2 * p.f do
      Runtime.Shm.alloc_max rt ~server
    done;
    let abd = A.create rt ~f:p.f ~write_back_reads () in
    let write c v =
      if not (List.exists (Id.Client.equal c) writers) then
        invalid_arg (name ^ ".write: not a writer");
      A.write abd c v
    in
    {
      Emulation.algo = name;
      kind = Base_object.Max_register;
      params = p;
      write;
      read = A.read abd;
      objects = (fun () -> Runtime.Shm.objects rt);
    }
  in
  {
    Emulation.name;
    obj_kind = Base_object.Max_register;
    expected_objects = Formulas.maxreg_bound;
    make;
  }

let factory = factory_with ~name:"abd-max" ~write_back_reads:false
