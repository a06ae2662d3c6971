(* Cross-module properties: algebraic identities between the formulas,
   agreement between independent computations of the same quantity, and
   conservation laws over runs. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history
open Regemu_core

let prop ?(count = 300) name arb p =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb p)

let gen_params ~f_max ~k_max ~n_max =
  QCheck.Gen.(
    let* f = int_range 1 f_max in
    let* k = int_range 1 k_max in
    let* n = int_range ((2 * f) + 1) n_max in
    return (Params.make_exn ~k ~f ~n))

let arb_params =
  QCheck.make (gen_params ~f_max:4 ~k_max:15 ~n_max:40)
    ~print:(fun p -> Fmt.str "%a" Params.pp p)

(* --- formula identities ------------------------------------------------- *)

let formula_props =
  [
    prop "the two lower-bound forms in the paper agree" arb_params (fun p ->
        (* Table 1 writes ceil(k / ((n-(f+1))/f)) * (f+1); Theorem 1
           writes ceil(kf / (n-(f+1))) * (f+1).  They are the same
           number. *)
        let table_form =
          (p.k * p.f)
          + Formulas.ceil_div (p.k * p.f) (p.n - (p.f + 1)) * (p.f + 1)
        in
        Formulas.register_lower_bound p = table_form);
    prop "upper bound = kf + m(f+1) with m = ceil(k/z)" arb_params (fun p ->
        Formulas.register_upper_bound p
        = (p.k * p.f) + (Formulas.num_sets p * (p.f + 1)));
    prop "z grows with n, never with f" arb_params (fun p ->
        let z_n = Formulas.z (Params.make_exn ~k:p.k ~f:p.f ~n:(p.n + 1)) in
        z_n >= Formulas.z p);
    prop "saturation is exact: bounds flatten at and only at n >= kf+f+1"
      arb_params (fun p ->
        let sat = Formulas.saturation_n ~k:p.k ~f:p.f in
        let at n = Formulas.register_lower_bound (Params.make_exn ~k:p.k ~f:p.f ~n) in
        at sat = (p.k * p.f) + p.f + 1
        && (sat <= (2 * p.f) + 1 || at (sat - 1) > (p.k * p.f) + p.f + 1));
    prop "every set's slack is exactly f per hosted writer" arb_params
      (fun p ->
        (* set i of size s_i hosts w_i writers; the paper's argument
           needs s_i - (f+1) = w_i * f so each writer can leave f
           registers covered while a quorum of f+1 stays clean *)
        let z = Formulas.z p in
        let sizes = Formulas.set_sizes p in
        let writers_in i =
          if i < p.k / z then z
          else p.k - (p.k / z * z) (* the overflow set, if any *)
        in
        List.for_all2
          (fun size w -> size - (p.f + 1) = w * p.f)
          sizes
          (List.init (List.length sizes) writers_in));
    prop "Theorem 7 at capacity >= kf needs exactly f+2 servers... or more"
      arb_params (fun p ->
        Formulas.min_servers ~k:p.k ~f:p.f ~capacity:(p.k * p.f)
        = p.f + 2);
  ]

(* --- layout vs formulas --------------------------------------------------- *)

let small_params =
  QCheck.make (gen_params ~f_max:3 ~k_max:8 ~n_max:16)
    ~print:(fun p -> Fmt.str "%a" Params.pp p)

let layout_props =
  [
    prop ~count:150 "on_server partitions the cells" small_params (fun p ->
        let layout = Layout.make p in
        let by_server =
          List.concat_map (Layout.on_server layout) (List.init p.Params.n Fun.id)
        in
        List.sort compare by_server = List.sort compare (Layout.cells layout));
    prop ~count:150 "per-server load is balanced within sets count"
      small_params (fun p ->
        let layout = Layout.make p in
        Layout.max_load layout <= Layout.num_sets layout);
  ]

(* --- conservation over runs ------------------------------------------------ *)

let arb_seed =
  QCheck.make QCheck.Gen.(int_range 0 1_000_000) ~print:string_of_int

let run_props =
  [
    prop ~count:50 "history length = invocation count" arb_seed (fun seed ->
        let p = Params.make_exn ~k:2 ~f:1 ~n:4 in
        match
          Regemu_workload.Scenario.chaos Algorithm2.factory p
            ~writes_per_writer:2 ~readers:1 ~reads_per_reader:2 ~crashes:0
            ~seed ()
        with
        | Error _ -> false
        | Ok r ->
            let stats = Stats.of_trace (Sim.trace r.sim) in
            List.length r.history = stats.invocations
            && stats.invocations = stats.returns);
    prop ~count:50 "triggers = responds + final pending" arb_seed (fun seed ->
        let p = Params.make_exn ~k:2 ~f:1 ~n:4 in
        match
          Regemu_workload.Scenario.concurrent_reads Algorithm2.factory p
            ~rounds:1 ~readers:1 ~crashes:1 ~seed ()
        with
        | Error _ -> false
        | Ok r ->
            let stats = Stats.of_trace (Sim.trace r.sim) in
            stats.triggers = stats.responds + List.length (Sim.pending r.sim));
    prop ~count:50 "sequential scenarios have point contention 1" arb_seed
      (fun seed ->
        let p = Params.make_exn ~k:2 ~f:1 ~n:4 in
        match
          Regemu_workload.Scenario.write_sequential Algorithm2.factory p
            ~read_after_each:true ~rounds:1 ~seed ()
        with
        | Error _ -> false
        | Ok r -> (Stats.of_trace (Sim.trace r.sim)).point_contention = 1);
    prop ~count:50 "latency list length = completed operations" arb_seed
      (fun seed ->
        let p = Params.make_exn ~k:1 ~f:1 ~n:3 in
        match
          Regemu_workload.Scenario.write_sequential Algorithm2.factory p
            ~read_after_each:true ~rounds:2 ~seed ()
        with
        | Error _ -> false
        | Ok r ->
            List.length (Stats.latencies (Sim.trace r.sim))
            = List.length (History.complete r.history));
    prop ~count:30 "adversarial usage formula: used = upper bound for alg2"
      arb_seed (fun seed ->
        let p = Params.make_exn ~k:3 ~f:1 ~n:5 in
        match Regemu_adversary.Lowerbound.execute Algorithm2.factory p ~seed () with
        | Error _ -> false
        | Ok run ->
            run.final_objects_used = Formulas.register_upper_bound p);
  ]

(* --- value algebra ----------------------------------------------------------- *)

let value_props =
  [
    prop "with_ts is injective on (ts, payload)"
      QCheck.(pair (pair small_int small_int) (pair small_int small_int))
      (fun ((t1, p1), (t2, p2)) ->
        let v1 = Value.with_ts t1 (Value.Int p1) in
        let v2 = Value.with_ts t2 (Value.Int p2) in
        Value.equal v1 v2 = (t1 = t2 && p1 = p2));
    prop "ts ordering dominates payload ordering"
      QCheck.(pair (pair small_int small_int) (pair small_int small_int))
      (fun ((t1, p1), (t2, p2)) ->
        let v1 = Value.with_ts t1 (Value.Int p1) in
        let v2 = Value.with_ts t2 (Value.Int p2) in
        t1 = t2 || compare (Value.compare v1 v2 > 0) (t1 > t2) = 0);
    prop "max is associative"
      QCheck.(triple small_int small_int small_int)
      (fun (a, b, c) ->
        let va = Value.Int a and vb = Value.Int b and vc = Value.Int c in
        Value.equal
          (Value.max va (Value.max vb vc))
          (Value.max (Value.max va vb) vc));
  ]

let suites =
  [
    ("props:formulas", formula_props);
    ("props:layout", layout_props);
    ("props:runs", run_props);
    ("props:values", value_props);
  ]
