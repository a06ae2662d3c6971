(* The benchmark's command line:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints a human-readable report, a run manifest
   line, and last a JSON result: the end-to-end metrics untraced
   ([--trace 0]), or the per-layer metrics from a traced run
   ([--trace 1]).  The result's keys are fixed, so the manifest has a
   line of its own; the CPU steal share also travels in the result, as
   the per-layer metric proc.steal_share.  Exits 1 when the correctness
   gate fails. *)

module W = Perfbench.Workloads
module Manifest = Perfbench.Manifest

(* the socket backend re-executes this binary as its server processes *)
let () = Regemu_live.Transport_socket.child_check ()

(* all the digits a float has, as a JSON number *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json (r : W.result) ~units =
  let metric (name, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v)
      (List.assoc name units)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failures = []) r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured load time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let wl =
    match List.assoc_opt !workload W.workloads with
    | Some wl -> wl
    | None ->
        Printf.eprintf "unknown workload %S; one of: %s\n" !workload
          (String.concat ", " (List.map fst W.workloads));
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seconds > 0 and --trace 0 or 1";
    exit 2
  end;
  let size = W.full ~seconds:!seconds in
  let r = W.run wl ~trace:(!trace = 1) ~seed:!seed ~size in
  List.iter print_endline r.lines;
  print_endline
    ("{\"manifest\": "
    ^ Manifest.json ~workload:!workload ~backend:(W.backend_of wl) ~seed:!seed
        ~seconds:!seconds ~trace:(!trace = 1) ~steal:r.steal
    ^ "}");
  print_endline
    (result_json r ~units:(if !trace = 1 then W.layers else W.e2e));
  if r.failures <> [] then exit 1
