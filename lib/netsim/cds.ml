open Regemu_objects

module Make (R : Runtime.S) = struct
  (* Timestamps are [seq * ts_stride + slot], so [Value.max] over
     timestamped values orders (seq, writer) lexicographically: no two
     writers ever produce the same timestamp, and a writer's own
     timestamps strictly increase (its collect sees its previous
     write's quorum).  1024 writers per emulation is far beyond
     anything the benches drive. *)
  let ts_stride = 1024

  type t = {
    rt : R.t;
    f : int;
    replicas : int list;
    slots : (int * int) list;  (* writer client id -> slot index *)
  }

  let create rt ~f ~writers () =
    let needed = (2 * f) + 1 in
    if R.num_servers rt < needed then
      invalid_arg
        (Fmt.str "Cds.create: need at least %d servers, have %d" needed
           (R.num_servers rt));
    if List.length writers > ts_stride then
      invalid_arg (Fmt.str "Cds.create: at most %d writers supported" ts_stride);
    let slots =
      List.mapi (fun i c -> (Id.Client.to_int (R.client_id c), i)) writers
    in
    { rt; f; replicas = List.init needed Fun.id; slots }

  let replicas t = List.length t.replicas
  let writer_slots t = List.length t.slots

  let slot_of t c =
    match List.assoc_opt (Id.Client.to_int (R.client_id c)) t.slots with
    | Some s -> s
    | None -> invalid_arg "Cds.write: not a registered writer"

  let quorum_round t cl ~make ~fold ~init =
    R.quorum_round t.rt cl ~quorum:(t.f + 1) ~make ~fold ~init t.replicas

  (* the collect phase: every resident slot of a quorum, folded to the
     lexicographic maximum *)
  let collect t cl =
    quorum_round t cl
      ~make:(fun rid -> Proto.Cquery { rid })
      ~init:Value.v0
      ~fold:(fun best reply ->
        match reply with
        | Proto.Cquery_reply { slots; _ } ->
            List.fold_left (fun b (_, v) -> Value.max b v) best slots
        | _ -> best)

  let write t cl v =
    let slot = slot_of t cl in
    R.invoke t.rt cl (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = collect t cl in
        let seq = (Value.ts latest / ts_stride) + 1 in
        let ts_val = Value.with_ts ((seq * ts_stride) + slot) v in
        quorum_round t cl
          ~make:(fun rid -> Proto.Cwrite { rid; slot; proposed = ts_val })
          ~init:() ~fold:(fun () _ -> ());
        Value.Unit)

  let read t cl =
    R.invoke t.rt cl Regemu_sim.Trace.H_read (fun () ->
        Value.payload (collect t cl))
end
