open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_core

(* One register per (server, writer slot). *)
type cell = {
  reg : Id.Obj.t;
  mutable in_flight : Value.t option;
  mutable queued : Value.t option;
}

type writer_state = {
  client : Id.Client.t;
  cells : cell array;  (* one per server *)
  mutable ts_val : Value.t;
  mutable acks : int;  (* servers holding the current ts_val, responded *)
}

let rec submit sim st cell v =
  match cell.in_flight with
  | None ->
      cell.in_flight <- Some v;
      ignore
        (Sim.trigger sim ~client:st.client cell.reg (Base_object.Write v)
           ~on_response:(fun _ack -> on_response sim st cell v))
  | Some _ -> cell.queued <- Some v

and on_response sim st cell written =
  cell.in_flight <- None;
  (match cell.queued with
  | Some q ->
      cell.queued <- None;
      submit sim st cell q
  | None -> ());
  if Value.equal written st.ts_val then st.acks <- st.acks + 1

let make sim (p : Params.t) ~writers =
  if p.n <> (2 * p.f) + 1 then
    invalid_arg "Layered.make: construction defined only for n = 2f+1";
  if List.length writers <> p.k then
    invalid_arg "Layered.make: writer count mismatch";
  if Sim.num_servers sim <> p.n then
    invalid_arg "Layered.make: server count mismatch";
  let by_server = Array.make p.n [] in
  let states =
    List.map
      (fun c ->
        let cells =
          Array.init p.n (fun si ->
              let reg =
                Sim.alloc sim ~server:(Id.Server.of_int si)
                  Base_object.Register
              in
              by_server.(si) <- by_server.(si) @ [ reg ];
              { reg; in_flight = None; queued = None })
        in
        ( Id.Client.to_int c,
          { client = c; cells; ts_val = Value.with_ts 0 Value.v0; acks = 0 } ))
      writers
  in
  let objects_on s = by_server.(Id.Server.to_int s) in
  let all_objects = List.concat (Array.to_list by_server) in
  let state_of c =
    match List.assoc_opt (Id.Client.to_int c) states with
    | Some st -> st
    | None -> invalid_arg "Layered.write: not a registered writer"
  in
  let write c v =
    let st = state_of c in
    Sim.invoke sim ~client:c (Trace.H_write v) (fun () ->
        let latest =
          Emulation.collect sim ~client:c ~objects_on ~n:p.n ~f:p.f
        in
        st.ts_val <- Value.with_ts (Value.ts latest + 1) v;
        st.acks <- 0;
        Array.iter (fun cell -> submit sim st cell st.ts_val) st.cells;
        Sim.wait_until (fun () -> st.acks >= p.f + 1);
        Value.Unit)
  in
  let read c =
    Sim.invoke sim ~client:c Trace.H_read (fun () ->
        Value.payload
          (Emulation.collect sim ~client:c ~objects_on ~n:p.n ~f:p.f))
  in
  {
    Emulation.algo = "layered";
    kind = Base_object.Register;
    params = p;
    write;
    read;
    objects = (fun () -> all_objects);
  }

let factory =
  {
    Emulation.name = "layered";
    obj_kind = Base_object.Register;
    expected_objects = (fun p -> ((2 * p.f) + 1) * p.k);
    make;
  }
