open Regemu_bounds
open Regemu_objects
open Regemu_netsim
module A = Alg2.Make (Runtime.Shm)

let make ?placement sim (p : Params.t) ~writers =
  if List.length writers <> p.k then
    invalid_arg
      (Fmt.str "Algorithm2.make: expected %d writers, got %d" p.k
         (List.length writers));
  let rt = Runtime.Shm.create sim in
  let alg = A.create rt p ?placement ~writers () in
  {
    Emulation.algo = "algorithm2";
    kind = Base_object.Register;
    params = p;
    write = A.write alg;
    read = A.read alg;
    objects = (fun () -> Runtime.Shm.objects rt);
  }

let factory =
  {
    Emulation.name = "algorithm2";
    obj_kind = Base_object.Register;
    expected_objects = Formulas.register_upper_bound;
    make = (fun sim p ~writers -> make sim p ~writers);
  }
