open Regemu_bounds
open Regemu_adversary

let figure1 ?params () =
  let p =
    match params with Some p -> p | None -> Params.make_exn ~k:5 ~f:2 ~n:6
  in
  let layout = Layout.make p in
  (* registers are numbered in allocation order, as Algorithm 2
     allocates them on a fresh simulator *)
  let cells =
    List.mapi
      (fun i (c : Layout.cell) -> (Regemu_objects.Id.Obj.of_int i, c))
      (Layout.cells layout)
  in
  let pp_server ppf s =
    let stored = List.filter (fun (_, (c : Layout.cell)) -> c.server = s) cells in
    Fmt.pf ppf "%a: %s@." Regemu_objects.Id.Server.pp
      (Regemu_objects.Id.Server.of_int s)
      (String.concat " "
         (List.map
            (fun (b, (c : Layout.cell)) ->
              Fmt.str "%a(R%d)" Regemu_objects.Id.Obj.pp b c.set)
            stored))
  in
  Fmt.str
    "Figure 1: mapping from R to S for %a (z=%d, y=%d, %d sets, %d registers)@.%a"
    Params.pp p (Formulas.z p) (Formulas.y p) (Layout.num_sets layout)
    (Layout.size layout)
    (Fmt.iter ~sep:Fmt.nop List.iter pp_server)
    (List.init p.n Fun.id)

let figure2 ?(f = 2) () =
  match Violation.against_naive ~f with
  | Error e -> Error e
  | Ok o ->
      let b = Buffer.create 512 in
      let ppf = Fmt.with_buffer b in
      Fmt.pf ppf
        "Figure 2: the Lemma 4 runs against the naive (2f+1)-register \
         algorithm, f=%d@."
        f;
      List.iteri (fun i s -> Fmt.pf ppf "  %d. %s@." (i + 1) s) o.steps;
      Fmt.pf ppf "Checker verdict: %a@." Regemu_history.Ws_check.verdict_pp
        o.verdict;
      Fmt.flush ppf ();
      Ok (Buffer.contents b)
