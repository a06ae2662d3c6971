open Regemu_bounds
open Regemu_objects

module Make (R : Runtime.S) = struct
  type cell = { server : int; reg : int }

  (* per-writer covering-discipline slot over its register-cell set; all
     fields are touched only under the owning client's lock *)
  type slot = {
    client : R.client;
    rset : cell array;
    mutable ts_val : Value.t;
    mutable acked : int list;  (* rset indexes acknowledged for ts_val *)
    outstanding : (int, Value.t) Hashtbl.t;  (* rset index -> value in flight *)
  }

  type t = {
    rt : R.t;
    params : Params.t;
    naive : bool;
    cells : cell list;  (* every cell of the construction *)
    by_server : cell list array;  (* index = server id *)
    slots : (int * slot) list;  (* writer client id -> slot *)
  }

  let cells t = List.length t.cells

  let distribute rt (p : Params.t) =
    (* the Section 3.3 layout: set i's register j on server (i+j) mod n *)
    let sizes = Formulas.set_sizes p in
    let by_server = Array.make p.n [] in
    let sets =
      List.mapi
        (fun i size ->
          Array.init size (fun j ->
              let server = (i + j) mod p.n in
              let reg = R.alloc_reg rt ~server in
              let c = { server; reg } in
              by_server.(server) <- by_server.(server) @ [ c ];
              c))
        sizes
    in
    (sets, by_server)

  (* the strawman: one cell per server on the first 2f+1, shared by
     every writer *)
  let naive_cells rt (p : Params.t) =
    let by_server = Array.make p.n [] in
    let cells =
      Array.init ((2 * p.f) + 1) (fun i ->
          let reg = R.alloc_reg rt ~server:i in
          let c = { server = i; reg } in
          by_server.(i) <- [ c ];
          c)
    in
    ([ cells ], by_server)

  let create rt (p : Params.t) ?(naive = false) ~writers () =
    if List.length writers <> p.k then
      invalid_arg "Alg2.create: writer count mismatch";
    if R.num_servers rt <> p.n then
      invalid_arg "Alg2.create: server count mismatch";
    let mk_slot rset client =
      {
        client;
        rset;
        ts_val = Value.with_ts 0 Value.v0;
        acked = [];
        outstanding = Hashtbl.create 8;
      }
    in
    let sets, by_server =
      if naive then naive_cells rt p else distribute rt p
    in
    let set_of i = if naive then 0 else i / Formulas.z p in
    let slots =
      List.mapi
        (fun i c ->
          ( Id.Client.to_int (R.client_id c),
            mk_slot (List.nth sets (set_of i)) c ))
        writers
    in
    {
      rt;
      params = p;
      naive;
      cells = List.concat_map Array.to_list sets;
      by_server;
      slots;
    }

  let slot_of t c =
    match List.assoc_opt (Id.Client.to_int (R.client_id c)) t.slots with
    | Some s -> s
    | None -> invalid_arg "Alg2.write: not a registered writer"

  (* send the slot's current value to rset index [i]; register the
     covering-discipline acknowledgement handler.  Caller holds the
     client lock (reply handlers do by construction).  The request is
     [sticky]: its acknowledgement matters across operations, so a
     lossy runtime retransmits it until acked even if the submitting
     operation has long returned. *)
  let rec send_current t slot i =
    let cell = slot.rset.(i) in
    let v = slot.ts_val in
    Hashtbl.replace slot.outstanding i v;
    R.rpc t.rt ~src:slot.client ~sticky:true cell.server
      ~make:(fun rid -> Proto.Reg_write { rid; reg = cell.reg; proposed = v })
      ~handler:(fun _ ->
        match Hashtbl.find_opt slot.outstanding i with
        | None -> ()  (* naive mode: a superseded acknowledgement *)
        | Some sent ->
            Hashtbl.remove slot.outstanding i;
            if Value.equal sent slot.ts_val then begin
              if not (List.mem i slot.acked) then slot.acked <- i :: slot.acked
            end
            else if not t.naive then
              (* a stale acknowledgement finally arrived: the cell now
                 holds an old value; immediately re-send the current one *)
              send_current t slot i)

  let submit t slot v ~quorum =
    R.locked slot.client (fun () ->
        slot.ts_val <- v;
        slot.acked <- [];
        Array.iteri
          (fun i _ ->
            if t.naive || not (Hashtbl.mem slot.outstanding i) then
              send_current t slot i)
          slot.rset);
    (* the quorum counts acked cells, so the need list carries one
       entry per cell of the register set *)
    let cell_servers = Array.to_list (Array.map (fun c -> c.server) slot.rset) in
    R.await t.rt slot.client ~need:(cell_servers, quorum) (fun () ->
        List.length slot.acked >= quorum)

  (* read every cell of [n - f] servers, return the maximum *)
  let collect t cl =
    let n = t.params.Params.n and f = t.params.Params.f in
    let scans = ref 0 in
    let best = ref Value.v0 in
    (* servers holding no cell count as scanned for free; the need list
       has one entry per server that must answer *)
    let auto =
      Array.fold_left (fun a cells -> if cells = [] then a + 1 else a) 0
        t.by_server
    in
    let busy_servers =
      List.filter (fun s -> t.by_server.(s) <> []) (List.init n Fun.id)
    in
    R.locked cl (fun () ->
        Array.iter
          (function
            | [] -> incr scans
            | cells ->
                let remaining = ref (List.length cells) in
                List.iter
                  (fun cell ->
                    R.rpc t.rt ~src:cl cell.server
                      ~make:(fun rid -> Proto.Reg_read { rid; reg = cell.reg })
                      ~handler:(fun reply ->
                        (match reply with
                        | Proto.Reg_read_reply { stored; _ } ->
                            best := Value.max !best stored
                        | _ -> ());
                        decr remaining;
                        if !remaining = 0 then incr scans))
                  cells)
          t.by_server);
    R.await t.rt cl
      ~need:(busy_servers, max 0 (n - f - auto))
      (fun () -> !scans >= n - f);
    R.locked cl (fun () -> !best)

  let write t c v =
    let slot = slot_of t c in
    R.invoke t.rt c (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = collect t c in
        let quorum =
          if t.naive then t.params.Params.f + 1
          else Array.length slot.rset - t.params.Params.f
        in
        submit t slot (Value.with_ts (Value.ts latest + 1) v) ~quorum;
        Value.Unit)

  let read t c =
    R.invoke t.rt c Regemu_sim.Trace.H_read (fun () ->
        Value.payload (collect t c))
end
