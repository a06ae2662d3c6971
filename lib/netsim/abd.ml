open Regemu_objects

module Make (R : Runtime.S) = struct
  type t = {
    rt : R.t;
    f : int;
    replicas : int list;
    write_back_reads : bool;
  }

  let create rt ~f ?(write_back_reads = false) () =
    let needed = (2 * f) + 1 in
    if R.num_servers rt < needed then
      invalid_arg
        (Fmt.str "Abd.create: need at least %d servers, have %d" needed
           (R.num_servers rt));
    { rt; f; replicas = List.init needed Fun.id; write_back_reads }

  let replicas t = List.length t.replicas

  let quorum_round t cl ~make ~fold ~init =
    R.quorum_round t.rt cl ~quorum:(t.f + 1) ~make ~fold ~init t.replicas

  let query_max t cl =
    quorum_round t cl
      ~make:(fun rid -> Proto.Query { rid })
      ~init:Value.v0
      ~fold:(fun best reply ->
        match reply with
        | Proto.Query_reply { stored; _ } -> Value.max best stored
        | _ -> best)

  let update t cl ts_val =
    quorum_round t cl
      ~make:(fun rid -> Proto.Update { rid; proposed = ts_val })
      ~init:() ~fold:(fun () _ -> ())

  let write t cl v =
    R.invoke t.rt cl (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = query_max t cl in
        update t cl (Value.with_ts (Value.ts latest + 1) v);
        Value.Unit)

  let read t cl =
    R.invoke t.rt cl Regemu_sim.Trace.H_read (fun () ->
        let latest = query_max t cl in
        if t.write_back_reads then update t cl latest;
        Value.payload latest)
end
