(* Capacity planning with the paper's bounds: given a cluster size, a
   failure threshold, a writer count, and per-server storage limits,
   work out which emulation is feasible and what it costs.

   This is Theorems 1, 3 and 7 used as an engineering tool.

   Run with: dune exec examples/space_planner.exe -- [k] [f] [n] [capacity] *)

open Regemu_bounds

let plan ~k ~f ~n ~capacity =
  Fmt.pr "== space planning for k=%d writers, f=%d crashes, n=%d servers, \
          per-server capacity %d ==@.@."
    k f n capacity;
  match Params.make ~k ~f ~n with
  | Error e -> Fmt.pr "infeasible: %s@." e
  | Ok p ->
      (* RMW-capable servers *)
      Fmt.pr "with max-register or CAS servers: %d objects (independent of \
              k)@."
        (Formulas.maxreg_bound p);
      (* plain registers *)
      let lower = Formulas.register_lower_bound p in
      let upper = Formulas.register_upper_bound p in
      Fmt.pr "with plain read/write registers:@.";
      Fmt.pr "  any algorithm needs  >= %d registers (Theorem 1)@." lower;
      Fmt.pr "  Algorithm 2 uses        %d registers (Theorem 3)@." upper;
      Fmt.pr "  layout: z=%d writers per set, sets of sizes %a@."
        (Formulas.z p)
        Fmt.(brackets (list ~sep:semi int))
        (Formulas.set_sizes p);
      (* does it fit per-server storage? *)
      let max_load = Layout.max_load (Layout.make p) in
      Fmt.pr "  heaviest server stores  %d registers@." max_load;
      if max_load <= capacity then Fmt.pr "  fits capacity %d: yes@." capacity
      else begin
        Fmt.pr "  fits capacity %d: no@." capacity;
        let needed = Formulas.min_servers ~k ~f ~capacity in
        Fmt.pr "  Theorem 7: with capacity %d you need at least %d servers@."
          capacity needed;
        (* find a server count where the layout actually fits *)
        let rec search n' =
          if n' > 100 * needed then None
          else
            match Params.make ~k ~f ~n:n' with
            | Error _ -> search (n' + 1)
            | Ok p' ->
                let load = Layout.max_load (Layout.make p') in
                if load <= capacity then Some (n', load) else search (n' + 1)
        in
        match search n with
        | Some (n', load) ->
            Fmt.pr
              "  Algorithm 2's layout fits from n=%d (heaviest server: %d)@."
              n' load
        | None -> Fmt.pr "  no feasible layout found in the search range@."
      end;
      (* where more servers stop helping *)
      Fmt.pr "  adding servers stops helping at n=%d (cost flattens to %d)@."
        (Formulas.saturation_n ~k ~f)
        ((k * f) + f + 1)

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  plan ~k:(arg 1 6) ~f:(arg 2 2) ~n:(arg 3 7) ~capacity:(arg 4 4)
