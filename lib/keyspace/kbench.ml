open Regemu_live
module Json = Regemu_obs.Json
module Benchdoc = Regemu_obs.Benchdoc

type spec = {
  algo : Algo.t;
  n : int;
  f : int;
  keys : int;
  zipfs : float list;
  arrival_rate : float;
  total_ops : int;
  window : int;
  write_fraction : float;
  seed : int;
  deep_sample : int;
  budget_ops : int;
  backend : Transport.backend;
}

let default_spec =
  {
    algo = Algo.Abd;
    n = 7;
    f = 1;
    keys = 100_000;
    zipfs = [ 0.0; 0.99; 1.2 ];
    arrival_rate = 50_000.0;
    total_ops = 400_000;
    window = 16;
    write_fraction = 0.5;
    seed = 42;
    deep_sample = 512;
    budget_ops = 50_000;
    backend = Transport.Threads;
  }

let smoke_spec =
  {
    algo = Algo.Abd;
    n = 5;
    f = 1;
    keys = 128;
    zipfs = [ 0.0; 0.99; 1.2 ];
    arrival_rate = 20_000.0;
    total_ops = 600;
    window = 4;
    write_fraction = 0.5;
    seed = 7;
    deep_sample = 8;
    budget_ops = 4_096;
    backend = Transport.Threads;
  }

type skew_outcome = {
  zipf : float;
  ops_per_s : float;
  completed : int;
  failed : int;
  elapsed_s : float;
  max_lateness_s : float;
  checks : int;
  violations : int;
  settled_writes : int;
  broken_keys : int;
  max_resident_ops : int;
  within_budget : bool;
  server_cells_max : int;
  server_cells_total : int;
  deep_keys : int;
  deep_mismatches : int;
}

type outcome = { spec : spec; skews : skew_outcome list }

let run_skew ?(quiet = true) ?(sink = Sink.none) spec zipf =
  let cluster =
    let base = Cluster.default_config ~n:spec.n ~seed:spec.seed in
    Cluster.create ~sink
      {
        base with
        Cluster.transport =
          { base.Cluster.transport with Transport.backend = spec.backend };
      }
  in
  let ks = Kspace.create cluster ~f:spec.f () in
  Cluster.start cluster;
  let checker =
    Kchecker.spawn ~sink
      ~config:
        {
          Kchecker.interval_s = 0.005;
          deep_sample = spec.deep_sample;
          deep_cap = 4096;
        }
      (Kspace.klog ks)
  in
  let load =
    Openload.run ks
      {
        Openload.keys = spec.keys;
        zipf;
        arrival_rate = spec.arrival_rate;
        total_ops = spec.total_ops;
        window = spec.window;
        write_fraction = spec.write_fraction;
        seed = spec.seed;
      }
  in
  let chk = Kchecker.stop checker in
  let server_cells_max, server_cells_total = Kspace.server_cells ks in
  Cluster.shutdown cluster;
  let o =
    {
      zipf;
      ops_per_s = load.Openload.ops_per_s;
      completed = load.Openload.completed;
      failed = load.Openload.failed;
      elapsed_s = load.Openload.elapsed_s;
      max_lateness_s = load.Openload.max_lateness_s;
      checks = chk.Kchecker.checks;
      violations = chk.Kchecker.violations;
      settled_writes = chk.Kchecker.settled_writes;
      broken_keys = chk.Kchecker.broken_keys;
      max_resident_ops = chk.Kchecker.max_resident_ops;
      within_budget = chk.Kchecker.max_resident_ops <= spec.budget_ops;
      server_cells_max;
      server_cells_total;
      deep_keys = chk.Kchecker.deep_keys;
      deep_mismatches = chk.Kchecker.deep_mismatches;
    }
  in
  if not quiet then
    Fmt.pr
      "zipf=%.2f: %.0f ops/s, %d completed, %d checks, %d violations, \
       resident<=%d (budget %d), cells max=%d total=%d@."
      zipf o.ops_per_s o.completed o.checks o.violations o.max_resident_ops
      spec.budget_ops server_cells_max server_cells_total;
  o

let run ?(quiet = true) ?(sink = Sink.none) spec =
  (* the keyspace's per-key quorum ops are the keyed ABD construction;
     other live algorithms have no keyed form (yet), so anything else
     is a spec error, not a silent fallback *)
  if spec.algo <> Algo.Abd then
    invalid_arg
      (Fmt.str "Kbench: the keyspace runs per-key %s quorums only (got %s)"
         (Algo.name Algo.Abd)
         (Algo.name spec.algo));
  { spec; skews = List.map (run_skew ~quiet ~sink spec) spec.zipfs }

let row_name zipf = Fmt.str "zipf=%g" zipf

let skew_clean (o : skew_outcome) =
  o.violations = 0 && o.deep_mismatches = 0 && o.within_budget

let rows o =
  let s = o.spec in
  List.map
    (fun (k : skew_outcome) ->
      {
        Benchdoc.name = row_name k.zipf;
        params =
          [
            ("algo", Json.Str (Algo.name s.algo));
            ("backend", Json.Str (Transport.backend_name s.backend));
            ("n", Json.Int s.n);
            ("f", Json.Int s.f);
            ("keys", Json.Int s.keys);
            ("zipf", Json.Float k.zipf);
            ("arrival_rate", Json.Float s.arrival_rate);
            ("total_ops", Json.Int s.total_ops);
            ("window", Json.Int s.window);
            ("write_fraction", Json.Float s.write_fraction);
            ("deep_sample", Json.Int s.deep_sample);
            ("budget_ops", Json.Int s.budget_ops);
            ("seed", Json.Int s.seed);
          ];
        metrics =
          [
            ("ops_per_s", Json.Float k.ops_per_s);
            ("completed", Json.Int k.completed);
            ("failed", Json.Int k.failed);
            ("elapsed_s", Json.Float k.elapsed_s);
            ("max_lateness_s", Json.Float k.max_lateness_s);
            ("checks", Json.Int k.checks);
            ("violations", Json.Int k.violations);
            ("settled_writes", Json.Int k.settled_writes);
            ("broken_keys", Json.Int k.broken_keys);
            ("max_resident_ops", Json.Int k.max_resident_ops);
            ("within_budget", Json.Bool k.within_budget);
            ("server_cells_max", Json.Int k.server_cells_max);
            ("server_cells_total", Json.Int k.server_cells_total);
            ("deep_keys", Json.Int k.deep_keys);
            ("deep_mismatches", Json.Int k.deep_mismatches);
          ];
        clean = skew_clean k;
      })
    o.skews

let gate spec =
  {
    Benchdoc.bench = "keyspace";
    rows = List.map row_name spec.zipfs;
    metrics =
      [
        ("ops_per_s", Benchdoc.Num);
        ("completed", Benchdoc.Num);
        ("checks", Benchdoc.Num);
        ("violations", Benchdoc.Num);
        ("broken_keys", Benchdoc.Num);
        ("max_resident_ops", Benchdoc.Num);
        ("within_budget", Benchdoc.Bool);
      ];
  }

let outcome_pp ppf o =
  Fmt.pf ppf "keyspace bench: n=%d f=%d keys=%d ops=%d window=%d" o.spec.n
    o.spec.f o.spec.keys o.spec.total_ops o.spec.window;
  List.iter
    (fun s ->
      Fmt.pf ppf
        "@.  zipf=%.2f  %8.0f ops/s  %d/%d ok  resident %d/%d %s  cells \
         max=%d total=%d  violations=%d"
        s.zipf s.ops_per_s s.completed (s.completed + s.failed)
        s.max_resident_ops o.spec.budget_ops
        (if s.within_budget then "(within budget)" else "(OVER BUDGET)")
        s.server_cells_max s.server_cells_total s.violations)
    o.skews
