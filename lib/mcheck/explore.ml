open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history

type script = (Id.Client.t * Trace.hop list) list

type mode = Eager | Sequential

type scenario = {
  params : Params.t;
  mode : mode;
  crashes : int;
  make : unit -> Sim.t * (Id.Client.t -> Trace.hop -> Sim.call) * script;
}

let emulation_scenario (factory : Regemu_core.Emulation.factory)
    (p : Params.t) ?(mode = Eager) ?(crashes = 0) ~writer_ops ~readers
    ~reads_each () =
  if List.length writer_ops <> p.k then
    invalid_arg "Explore.emulation_scenario: writer_ops size must be k";
  let make () =
    let sim = Sim.create ~n:p.n () in
    let writers = List.init p.k (fun _ -> Sim.new_client sim) in
    let instance = factory.make sim p ~writers in
    let reader_clients = List.init readers (fun _ -> Sim.new_client sim) in
    let script =
      List.map2
        (fun w vs -> (w, List.map (fun v -> Trace.H_write v) vs))
        writers writer_ops
      @ List.map
          (fun r -> (r, List.init reads_each (fun _ -> Trace.H_read)))
          reader_clients
    in
    let invoke1 c hop =
      match hop with
      | Trace.H_write v -> instance.write c v
      | Trace.H_read -> instance.read c
    in
    (sim, invoke1, script)
  in
  { params = p; mode; crashes; make }

type result = {
  terminal_runs : int;
  distinct_histories : int;
  stuck_runs : int;
  fired_events : int;
  exhaustive : bool;
  max_depth : int;
  ws_safe_violations : History.t list;
  ws_regular_violations : History.t list;
  first_violation_at : int option;
}

let result_pp ppf r =
  Fmt.pf ppf
    "%d terminal runs (%d distinct histories), %d stuck, %d events fired, \
     exhaustive=%b, max depth %d, %d WS-Safe / %d WS-Regular violations"
    r.terminal_runs r.distinct_histories r.stuck_runs r.fired_events
    r.exhaustive r.max_depth
    (List.length r.ws_safe_violations)
    (List.length r.ws_regular_violations)

(* A live run that can be advanced one chosen event at a time,
   auto-invoking eligible script operations after every event.  Exposed
   so other search strategies (the DPOR engine in {!Dpor}) can drive
   the same scenarios. *)
module Session = struct
  type choice = Event of Sim.event | Crash of Id.Server.t

  (* a client's scripted operations not yet invoked *)
  type slot = { client : Id.Client.t; mutable ops : Trace.hop list }

  type t = {
    scenario : scenario;
    sim : Sim.t;
    slots : (int, slot) Hashtbl.t;  (* by client id *)
    calls : Sim.call list ref;  (* newest first *)
    auto_invoke : unit -> unit;
  }

  let create scenario =
    let sim, invoke1, script = scenario.make () in
    let slots = Hashtbl.create 8 in
    List.iter
      (fun (c, ops) ->
        Hashtbl.replace slots (Id.Client.to_int c) { client = c; ops })
      script;
    let calls = ref [] in
    (* script-order queue for Sequential mode *)
    let seq_queue =
      ref
        (List.concat_map
           (fun (c, ops) -> List.map (fun o -> (c, o)) ops)
           script)
    in
    let rec auto_invoke () =
      match scenario.mode with
      | Eager ->
          let progressed = ref false in
          Hashtbl.iter
            (fun _ s ->
              match s.ops with
              | hop :: rest when not (Sim.client_busy sim s.client) ->
                  s.ops <- rest;
                  calls := invoke1 s.client hop :: !calls;
                  progressed := true
              | _ -> ())
            slots;
          if !progressed then auto_invoke ()
      | Sequential -> (
          let all_returned = List.for_all Sim.call_returned !calls in
          match !seq_queue with
          | (c, hop) :: rest when all_returned ->
              seq_queue := rest;
              (match Hashtbl.find_opt slots (Id.Client.to_int c) with
              | Some ({ ops = _ :: ops_rest; _ } as s) -> s.ops <- ops_rest
              | _ -> ());
              calls := invoke1 c hop :: !calls;
              auto_invoke ()
          | _ -> ())
    in
    auto_invoke ();
    { scenario; sim; slots; calls; auto_invoke }

  let sim t = t.sim
  let calls t = !(t.calls)

  let fire t choice =
    (match choice with
    | Event ev -> Sim.fire t.sim ev
    | Crash s -> Sim.crash_server t.sim s);
    t.auto_invoke ()

  let correct_servers sim =
    List.filter (fun s -> not (Sim.server_crashed sim s)) (Sim.servers sim)

  let advance t idx =
    let evs = Sim.enabled t.sim in
    let n_ev = List.length evs in
    fire t
      (if idx < n_ev then Event (List.nth evs idx)
       else Crash (List.nth (correct_servers t.sim) (idx - n_ev)))

  let finished t =
    Hashtbl.fold (fun _ s acc -> acc && s.ops = []) t.slots true
    && List.for_all Sim.call_returned !(t.calls)

  let crash_candidates t =
    let so_far = Id.Server.Set.cardinal (Sim.crashed_servers t.sim) in
    if so_far < t.scenario.crashes then correct_servers t.sim else []

  let enabled_events t = Sim.enabled t.sim

  let width t =
    List.length (enabled_events t) + List.length (crash_candidates t)

  let replay scenario choices =
    let t = create scenario in
    List.iter (fire t) choices;
    t
end

let run ?(stop_on_violation = false) scenario ~max_fired =
  let fired = ref 0 in
  let truncated = ref false in
  let halted = ref false in
  let distinct : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let terminal = ref 0 in
  let stuck = ref 0 in
  let max_depth = ref 0 in
  let safe_bad = ref [] in
  let regular_bad = ref [] in
  let first_violation = ref None in
  let keep_violation store h =
    if !first_violation = None then first_violation := Some !fired;
    if List.length !store < 3 then store := h :: !store
  in
  let fresh_session () = Session.create scenario in
  let advance s idx =
    Session.advance s idx;
    incr fired
  in
  let replay prefix =
    let s = fresh_session () in
    List.iter (advance s) prefix;
    s
  in
  let record_history ?(terminal_run = false) sim =
    let h = History.of_trace (Sim.trace sim) in
    if terminal_run then
      Hashtbl.replace distinct (Fmt.str "%a" History.pp h) ();
    let violated = ref false in
    (match Ws_check.check_ws_safe h with
    | Ws_check.Violated _ ->
        violated := true;
        keep_violation safe_bad h
    | Ws_check.Holds | Ws_check.Vacuous -> ());
    (match Ws_check.check_ws_regular h with
    | Ws_check.Violated _ ->
        violated := true;
        keep_violation regular_bad h
    | Ws_check.Holds | Ws_check.Vacuous -> ());
    if stop_on_violation && !violated then halted := true
  in
  (* [session] is live and positioned at [prefix]; the first child is
     explored by advancing it in place (saving one replay per node), the
     siblings by replaying their prefixes from scratch. *)
  let rec dfs session prefix =
    if !halted then ()
    else if !fired >= max_fired then truncated := true
    else begin
      let depth = List.length prefix in
      if depth > !max_depth then max_depth := depth;
      if Session.finished session then begin
        incr terminal;
        record_history ~terminal_run:true (Session.sim session)
      end
      else
        let crash_choices = List.length (Session.crash_candidates session) in
        match Session.enabled_events session with
        | [] when crash_choices = 0 ->
            incr stuck;
            record_history (Session.sim session)
        | evs ->
            let width = List.length evs + crash_choices in
            advance session 0;
            dfs session (prefix @ [ 0 ]);
            for i = 1 to width - 1 do
              if (not !halted) && !fired < max_fired then
                dfs (replay (prefix @ [ i ])) (prefix @ [ i ])
            done
    end
  in
  dfs (fresh_session ()) [];
  {
    terminal_runs = !terminal;
    distinct_histories = Hashtbl.length distinct;
    stuck_runs = !stuck;
    fired_events = !fired;
    exhaustive = (not !truncated) && not !halted;
    max_depth = !max_depth;
    ws_safe_violations = List.rev !safe_bad;
    ws_regular_violations = List.rev !regular_bad;
    first_violation_at = !first_violation;
  }
