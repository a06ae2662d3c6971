(* The correctness gate.  A run that fails it is reported as incorrect
   and never scored.  The gate is a pure function of what the run
   observed, so the tests can feed it a wrong space count or a violated
   verdict directly. *)

type verdict = Holds | Vacuous | Violated of string

let verdict_of_ws = function
  | Regemu_history.Ws_check.Holds -> Holds
  | Vacuous -> Vacuous
  | Violated v ->
      Violated (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp (Violated v))

type obs = {
  checker : verdict option;  (** the online checker's final verdict *)
  deep_mismatches : int;  (** Kchecker's GC-soundness alarm *)
  issued : int;  (** operations started *)
  completed : int;
  failed : int;  (** escaped with [Unavailable] or [Timeout] *)
  space_cells : int;  (** measured at quiesce *)
  space_formula : int;  (** the paper's count for this run *)
  dpor_violations : int;
  dpor_counts : int list list;
      (** the counts of each [Dpor.run] call at one seed and budget *)
  final_read : string option;  (** [Some why] when a final read was wrong *)
}

let empty =
  {
    checker = None;
    deep_mismatches = 0;
    issued = 0;
    completed = 0;
    failed = 0;
    space_cells = 0;
    space_formula = 0;
    dpor_violations = 0;
    dpor_counts = [];
    final_read = None;
  }

(* every reason the run is not correct; [] means it passes *)
let check o =
  List.concat
    [
      (match o.checker with
      | Some (Violated m) -> [ "consistency checker: violated: " ^ m ]
      | _ -> []);
      (if o.deep_mismatches > 0 then
         [ Fmt.str "kchecker: %d deep mismatches" o.deep_mismatches ]
       else []);
      (if o.issued < 1 then [ "no operation was issued" ] else []);
      (if o.completed + o.failed <> o.issued then
         [
           Fmt.str "issued %d ops but %d completed and %d failed" o.issued
             o.completed o.failed;
         ]
       else []);
      (if o.space_cells <> o.space_formula then
         [
           Fmt.str "space_cells %d differs from the paper's formula %d"
             o.space_cells o.space_formula;
         ]
       else []);
      (if o.dpor_violations > 0 then
         [ Fmt.str "dpor: %d violations" o.dpor_violations ]
       else []);
      (match o.dpor_counts with
      | c :: rest when List.exists (( <> ) c) rest ->
          [ "dpor: counts differ between runs of one seed and budget" ]
      | _ -> []);
      (match o.final_read with Some m -> [ "final read: " ^ m ] | None -> []);
    ]
