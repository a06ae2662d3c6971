open Regemu_bounds
open Regemu_objects
open Regemu_netsim
module A = Alg2.Make (Runtime.Shm)

type t = { rt : Runtime.Shm.t; alg : A.t; readers : Id.Client.t list }

let expected_objects (p : Params.t) ~readers =
  Formulas.register_upper_bound
    (Params.make_exn ~k:(p.k + readers) ~f:p.f ~n:p.n)

let create sim (p : Params.t) ~writers ~readers =
  if readers = [] then invalid_arg "Algorithm2_rwb.create: no readers";
  let rt = Runtime.Shm.create sim in
  { rt; alg = A.create rt p ~writers ~readers (); readers }

let objects t = Runtime.Shm.objects t.rt
let write t = A.write t.alg

let read t c =
  if not (List.exists (Id.Client.equal c) t.readers) then
    invalid_arg "Algorithm2_rwb.read: unregistered client";
  A.read t.alg c
