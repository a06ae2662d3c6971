open Regemu_bounds
open Regemu_objects

module Make (R : Runtime.S) = struct
  type cell = { server : int; reg : int }

  (* per-client covering-discipline slot over its register-cell set; all
     fields are touched only under the owning client's lock *)
  type slot = {
    client : R.client;
    rset : cell array;
    mutable ts_val : Value.t;
    mutable submits : int;  (* submits so far: the current one's number *)
    mutable acked : int list;  (* rset indexes acknowledged this submit *)
    outstanding : (int, int) Hashtbl.t;  (* rset index -> submit in flight *)
  }

  type t = {
    rt : R.t;
    params : Params.t;
    naive : bool;
    cells : int;
    by_server : cell list array;  (* index = server id *)
    empty_servers : int;  (* servers holding no cell *)
    busy_servers : int list;  (* the others *)
    writers : (int * slot) list;  (* client id -> slot *)
    readers : (int * slot) list;  (* write-back slots of registered readers *)
  }

  let cells t = t.cells

  let create rt (p : Params.t) ?(naive = false) ?placement ~writers
      ?(readers = []) () =
    if List.length writers <> p.k then
      invalid_arg "Alg2.create: writer count mismatch";
    if R.num_servers rt <> p.n then
      invalid_arg "Alg2.create: server count mismatch";
    if naive && readers <> [] then
      invalid_arg "Alg2.create: the naive mode has no reader write-back";
    let layout =
      if naive then Layout.make ~placement:Layout.Naive p
      else
        Layout.make ?placement
          (Params.make_exn ~k:(p.k + List.length readers) ~f:p.f ~n:p.n)
    in
    (* allocate set by set, so cells appear in the layout's order *)
    let by_server = Array.make p.n [] in
    let sets =
      Array.init (Layout.num_sets layout) (fun i ->
          Array.map
            (fun (c : Layout.cell) ->
              let cell =
                { server = c.server; reg = R.alloc_reg rt ~server:c.server }
              in
              by_server.(c.server) <- by_server.(c.server) @ [ cell ];
              cell)
            (Layout.set layout i))
    in
    let slot i client =
      ( Id.Client.to_int (R.client_id client),
        {
          client;
          rset = sets.(Layout.set_index_for_slot layout ~slot:i);
          ts_val = Value.with_ts 0 Value.v0;
          submits = 0;
          acked = [];
          outstanding = Hashtbl.create 8;
        } )
    in
    let busy_servers =
      List.filter (fun s -> by_server.(s) <> []) (List.init p.n Fun.id)
    in
    {
      rt;
      params = p;
      naive;
      cells = Layout.size layout;
      by_server;
      empty_servers = p.n - List.length busy_servers;
      busy_servers;
      writers = List.mapi slot writers;
      readers = List.mapi (fun i c -> slot (p.k + i) c) readers;
    }

  (* send the slot's current value to rset index [i]; register the
     covering-discipline acknowledgement handler.  Caller holds the
     client lock (reply handlers do by construction).  The request is
     [sticky]: its acknowledgement matters across operations, so a
     lossy runtime retransmits it until acked even if the submitting
     operation has long returned. *)
  let rec send_current t slot i =
    let cell = slot.rset.(i) in
    let v = slot.ts_val in
    Hashtbl.replace slot.outstanding i slot.submits;
    R.rpc t.rt ~src:slot.client ~sticky:true cell.server
      ~make:(fun rid -> Proto.Reg_write { rid; reg = cell.reg; proposed = v })
      ~handler:(fun _ ->
        match Hashtbl.find_opt slot.outstanding i with
        | None -> ()  (* naive mode: a superseded acknowledgement *)
        | Some sent ->
            Hashtbl.remove slot.outstanding i;
            if sent = slot.submits then begin
              if not (List.mem i slot.acked) then slot.acked <- i :: slot.acked
            end
            else if not t.naive then
              (* the cell was covered by an older submit's write, which
                 finally responded: re-send the current value at once
                 (Algorithm 2 lines 29-34) *)
              send_current t slot i)

  (* covering discipline (lines 6-10): a fresh write on every cell with
     none of ours pending, then wait for [|R| - f] acknowledgements *)
  let submit t slot v =
    R.locked slot.client (fun () ->
        slot.ts_val <- v;
        slot.submits <- slot.submits + 1;
        slot.acked <- [];
        Array.iteri
          (fun i _ ->
            if t.naive || not (Hashtbl.mem slot.outstanding i) then
              send_current t slot i)
          slot.rset);
    let quorum = Array.length slot.rset - t.params.Params.f in
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
    (* servers holding no cell count as scanned for free; the need list
       has one entry per server that must answer *)
    R.await t.rt cl
      ~need:(t.busy_servers, max 0 (n - f - t.empty_servers))
      (fun () -> !scans >= n - f);
    R.locked cl (fun () -> !best)

  let slot_of slots c = List.assoc_opt (Id.Client.to_int (R.client_id c)) slots

  let write t c v =
    let slot =
      match slot_of t.writers c with
      | Some s -> s
      | None -> invalid_arg "Alg2.write: not a registered writer"
    in
    R.invoke t.rt c (Regemu_sim.Trace.H_write v) (fun () ->
        let latest = collect t c in
        submit t slot (Value.with_ts (Value.ts latest + 1) v);
        Value.Unit)

  let read t c =
    let write_back = slot_of t.readers c in
    R.invoke t.rt c Regemu_sim.Trace.H_read (fun () ->
        let latest = collect t c in
        (* write-back before returning: a later collect must see it *)
        Option.iter (fun slot -> submit t slot latest) write_back;
        Value.payload latest)
end
