module Json = Regemu_obs.Json

let schema = "regemu-compare/1"

type load = { label : string; k : int; readers : int; f : int; n : int }

(* Two load points that pull the three axes apart: a light point at
   the minimum interesting writer count, and a heavy one where both
   the writer count and the fault tolerance grow — CDS pays k cells on
   every replica, Algorithm 2 spreads kf + ⌈k/z⌉(f+1) cells across all
   n servers, ABD holds one (unbounded) max-register per replica
   whatever k is. *)
let loads =
  [
    { label = "k2-f1"; k = 2; readers = 4; f = 1; n = 5 };
    { label = "k6-f2"; k = 6; readers = 6; f = 2; n = 7 };
  ]

let smoke_loads = [ { label = "k2-f1"; k = 2; readers = 2; f = 1; n = 5 } ]

let algos = [ Algo.Abd; Algo.Alg2; Algo.Cds ]
let algo_names = List.map Algo.name algos

(* the socket backend's stores live in child processes the sampler
   cannot see, so the committed comparison covers the two in-process
   fabrics *)
let backends = [ Transport.Threads; Transport.Domains ]

let spec_of ~backend ~algo ~ops_per_client ~seed l =
  {
    Live_bench.algo;
    k = l.k;
    readers = l.readers;
    f = l.f;
    n = l.n;
    ops_per_client;
    couriers = 3;
    chaos = false;
    (* peak-pipeline mode, like the saturation sweep *)
    reorder = false;
    backend;
    seed;
  }

(* backends adjacent per (load, algo) so the round-robined reps measure
   each threads/domains pair under the same machine weather *)
let specs ?(loads = loads) ?(ops_per_client = 150) ~seed () =
  List.concat_map
    (fun l ->
      List.concat_map
        (fun algo ->
          List.map
            (fun backend ->
              (l, spec_of ~backend ~algo ~ops_per_client ~seed l))
            backends)
        algos)
    loads

let smoke_specs ~seed () = specs ~loads:smoke_loads ~ops_per_client:25 ~seed ()

type row = { load : load; outcome : Live_bench.outcome }

let run ?sink ?(reps = 1) pairs =
  let outs = Live_bench.run_sweep_median ~reps ?sink (List.map snd pairs) in
  List.map2 (fun (l, _) o -> { load = l; outcome = o }) pairs outs

let clean rows = List.for_all (fun r -> Live_bench.clean r.outcome) rows

(* --- reporting ---------------------------------------------------------- *)

let pct o p =
  try List.assoc p o.Live_bench.pcts_us with Not_found -> 0.0

let row_pp ppf r =
  let o = r.outcome in
  let s = o.Live_bench.spec in
  Fmt.pf ppf
    "%-10s %-7s %-6s f=%d n=%d k=%d: %7.0f ops/s p95=%.0fus space/server \
     %d cells %d B (total %d, formula %d)%s"
    (Algo.name s.Live_bench.algo)
    (Transport.backend_name s.Live_bench.backend)
    r.load.label s.Live_bench.f s.Live_bench.n s.Live_bench.k
    o.Live_bench.throughput (pct o 0.95) o.Live_bench.space_cells
    o.Live_bench.space_bytes o.Live_bench.space_cells_total
    (Algo.cells s.Live_bench.algo ~k:s.k ~f:s.f ~n:s.n)
    (if Live_bench.clean o then "" else " DIRTY")

let row_json r =
  let o = r.outcome in
  let s = o.Live_bench.spec in
  Json.Obj
    [
      ("algo", Json.Str (Algo.name s.Live_bench.algo));
      ("backend", Json.Str (Transport.backend_name s.Live_bench.backend));
      ("load", Json.Str r.load.label);
      ("writers", Json.Int s.Live_bench.k);
      ("readers", Json.Int s.Live_bench.readers);
      ("f", Json.Int s.Live_bench.f);
      ("n", Json.Int s.Live_bench.n);
      ("clients", Json.Int (s.Live_bench.k + s.Live_bench.readers));
      ("ops", Json.Int o.Live_bench.ops);
      ("ops_per_s", Json.Float o.Live_bench.throughput);
      ("latency_p50_us", Json.Float (pct o 0.50));
      ("latency_p95_us", Json.Float (pct o 0.95));
      ("space_resident_cells", Json.Int o.Live_bench.space_cells);
      ("space_resident_bytes", Json.Int o.Live_bench.space_bytes);
      ("space_cells_total", Json.Int o.Live_bench.space_cells_total);
      ( "space_formula_cells_total",
        Json.Int (Algo.cells s.Live_bench.algo ~k:s.k ~f:s.f ~n:s.n) );
      ( "ws_regular",
        Json.Str
          (Fmt.str "%a" Regemu_history.Ws_check.verdict_pp
             o.Live_bench.check.Checker.ws) );
      ("clean", Json.Bool (Live_bench.clean o));
    ]

let to_json ~seed ~smoke rows =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("seed", Json.Int seed);
      ("smoke", Json.Bool smoke);
      ("rows", Json.List (List.map row_json rows));
      ("clean", Json.Bool (clean rows));
    ]

(* --- validation (on write and on read-back) ------------------------------ *)

let backend_names = List.map Transport.backend_name backends

let validate_compare_json json =
  let ( let* ) = Result.bind in
  let field name = function
    | Json.Obj kvs -> (
        match List.assoc_opt name kvs with
        | Some v -> Ok v
        | None -> Error (Fmt.str "missing field %S" name))
    | _ -> Error "expected an object"
  in
  let str what = function
    | Json.Str s -> Ok s
    | _ -> Error (Fmt.str "%s must be a string" what)
  in
  let* schema_v = field "schema" json in
  let* schema_s = str "schema" schema_v in
  let* () =
    if schema_s = schema then Ok () else Error (Fmt.str "bad schema %S" schema_s)
  in
  let* rows = field "rows" json in
  let* rows =
    match rows with
    | Json.List [] -> Error "rows must be non-empty"
    | Json.List rs -> Ok rs
    | _ -> Error "rows must be a list"
  in
  let* triples =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* algo = Result.bind (field "algo" r) (str "algo") in
        let* () =
          if List.mem algo algo_names then Ok ()
          else
            Error
              (Fmt.str "unknown algo %S; expected one of %s" algo
                 (String.concat ", " algo_names))
        in
        let* backend = Result.bind (field "backend" r) (str "backend") in
        let* () =
          if List.mem backend backend_names then Ok ()
          else Error (Fmt.str "unknown backend %S" backend)
        in
        let* load = Result.bind (field "load" r) (str "load") in
        let* () =
          List.fold_left
            (fun acc k ->
              let* () = acc in
              let* v = field k r in
              match v with
              | Json.Float _ | Json.Int _ -> Ok ()
              | _ -> Error (Fmt.str "%s must be a number" k))
            (Ok ())
            [
              "ops_per_s"; "latency_p50_us"; "latency_p95_us";
              "space_resident_cells"; "space_resident_bytes";
              "space_cells_total"; "space_formula_cells_total"; "f"; "n";
            ]
        in
        let* () =
          match field "clean" r with
          | Ok (Json.Bool _) -> Ok ()
          | Ok _ -> Error "clean must be a bool"
          | Error e -> Error e
        in
        Ok ((algo, backend, load) :: acc))
      (Ok []) rows
  in
  (* coverage: exactly one row per (algo × backend) for every load
     point present — a missing or duplicated cell is a schema error,
     not a dashboard surprise *)
  let load_labels = List.sort_uniq compare (List.map (fun (_, _, l) -> l) triples) in
  List.fold_left
    (fun acc l ->
      let* () = acc in
      List.fold_left
        (fun acc algo ->
          let* () = acc in
          List.fold_left
            (fun acc backend ->
              let* () = acc in
              match
                List.length
                  (List.filter (fun t -> t = (algo, backend, l)) triples)
              with
              | 1 -> Ok ()
              | 0 ->
                  Error
                    (Fmt.str "missing row (%s, %s, %s)" algo backend l)
              | n ->
                  Error
                    (Fmt.str "%d duplicate rows (%s, %s, %s)" n algo backend l))
            (Ok ()) backend_names)
        (Ok ()) algo_names)
    (Ok ()) load_labels
