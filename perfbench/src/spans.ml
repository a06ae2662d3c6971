(* Reads spans back out of an in-memory trace.  Spans on one recorder
   nest by bracketing; a span's self time is its duration minus the
   time its child spans cover. *)

module Trace = Regemu_obs.Trace
module Event = Regemu_obs.Event

type span = { name : string; dur_ns : int; child_ns : int }

let self_ns s = s.dur_ns - s.child_ns

(* closed spans of one recorder's event stream, in closing order.  A
   ring that wrapped may have lost the [Begin] of its oldest spans;
   an [End] that matches nothing open is skipped. *)
let of_events (evs : Event.t list) =
  let stack = ref [] and out = ref [] in
  List.iter
    (fun (e : Event.t) ->
      let ts = Int64.to_int e.ts_ns in
      match e.ph with
      | Begin -> stack := (e.name, ts, ref 0) :: !stack
      | End -> (
          match !stack with
          | (name, t0, child) :: rest when name = e.name ->
              let dur = ts - t0 in
              out := { name; dur_ns = dur; child_ns = !child } :: !out;
              stack := rest;
              (match rest with (_, _, c) :: _ -> c := !c + dur | [] -> ())
          | _ -> stack := [])
      | Instant -> ())
    evs;
  List.rev !out

(* every closed span on the recorders whose name satisfies [keep] *)
let collect trace ~keep =
  List.concat_map
    (fun r ->
      if keep (Trace.recorder_name r) then of_events (Trace.recorder_events r)
      else [])
    (Trace.recorders trace)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let named names spans = List.filter (fun s -> List.mem s.name names) spans

(* p50 of [f] over [spans], in microseconds; 0 when there are none *)
let p50_us f spans =
  let a = Pstats.sorted_list (List.map f spans) in
  float_of_int (Pstats.pct a 50.0) /. 1e3
