(* The run manifest: what produced a result, and how much of the
   machine the hypervisor took away while it ran.  A run whose CPU
   steal share is high is not comparable with one whose share is low,
   so the share travels with every result. *)

(* the aggregate "cpu" line of /proc/stat: (steal ticks, all ticks) *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      Option.bind line (fun line ->
          match String.split_on_char ' ' line with
          | "cpu" :: rest -> (
              let fields =
                List.filter_map int_of_string_opt
                  (List.filter (( <> ) "") rest)
              in
              (* user nice system idle iowait irq softirq steal, then
                 guest time, which user time already includes *)
              match fields with
              | _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
                  let all =
                    List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) fields)
                  in
                  Some (steal, all)
              | _ -> None)
          | _ -> None)

(* share of all CPU time on the machine stolen since [start], a
   [cpu_ticks] reading *)
let steal_share start =
  match (start, cpu_ticks ()) with
  | Some (s0, a0), Some (s1, a1) when a1 > a0 ->
      float_of_int (s1 - s0) /. float_of_int (a1 - a0)
  | _ -> 0.0

let commit () =
  match Sys.getenv_opt "PERFBENCH_COMMIT" with
  | Some c when c <> "" -> c
  | _ -> "unknown"

(* one line of JSON *)
let json ~workload ~backend ~seed ~seconds ~trace ~steal =
  Printf.sprintf
    "{\"commit\": %S, \"nproc\": %d, \"ocaml\": %S, \"workload\": %S, \
     \"backend\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"cpu_steal_share\": %.6f}"
    (commit ()) (Domain.recommended_domain_count ()) Sys.ocaml_version workload
    backend seed seconds trace steal
