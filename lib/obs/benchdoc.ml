let schema = "regemu-bench/3"

type manifest = {
  bench : string;
  commit : string;
  cores : int;
  ocaml : string;
  seed : int;
  smoke : bool;
}

(* the lines a git command prints, or [None] when git or the
   repository is missing *)
let git args =
  match Unix.open_process_in ("git " ^ args ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic -> (
      let rec lines acc =
        match input_line ic with
        | l -> lines (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let out = lines [] in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some out
      | _ -> None)

let commit_label ~head ~status =
  match head with
  | Some [ sha ] when String.length sha = 40 -> (
      match status with Some [] | None -> sha | Some _ -> sha ^ "-dirty")
  | _ -> "unknown"

(* the commit this binary was run from; a checkout without git (or
   without a repository) still gets a manifest *)
let commit () =
  commit_label ~head:(git "rev-parse HEAD")
    ~status:(git "status --porcelain --untracked-files=no")

let manifest ~bench ~seed ~smoke =
  {
    bench;
    commit = commit ();
    cores = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    seed;
    smoke;
  }

type row = {
  name : string;
  params : (string * Json.t) list;
  metrics : (string * Json.t) list;
  clean : bool;
}

type t = { manifest : manifest; rows : row list }

let clean d = List.for_all (fun (r : row) -> r.clean) d.rows

let to_json d =
  let m = d.manifest in
  let row r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("params", Json.Obj r.params);
        ("metrics", Json.Obj r.metrics);
        ("clean", Json.Bool r.clean);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "manifest",
        Json.Obj
          [
            ("bench", Json.Str m.bench);
            ("commit", Json.Str m.commit);
            ("cores", Json.Int m.cores);
            ("ocaml", Json.Str m.ocaml);
            ("seed", Json.Int m.seed);
            ("smoke", Json.Bool m.smoke);
          ] );
      ("rows", Json.List (List.map row d.rows));
      ("clean", Json.Bool (clean d));
    ]

(* --- the one validator --------------------------------------------------- *)

type kind = Num | Bool
type gate = { bench : string; rows : string list; metrics : (string * kind) list }

let ( let* ) = Result.bind
let err fmt = Fmt.kstr Result.error fmt

let rec all f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      all f rest

let field what k j =
  match Json.member k j with
  | Some v -> Ok v
  | None -> err "%s: missing %S" what k

let str what k j =
  let* v = field what k j in
  match v with Json.Str s -> Ok s | _ -> err "%s: %S must be a string" what k

let bool what k j =
  let* v = field what k j in
  match v with Json.Bool b -> Ok b | _ -> err "%s: %S must be a bool" what k

let scalars what k j =
  let* v = field what k j in
  match v with
  | Json.Obj kvs ->
      let* () =
        all
          (function
            | _, (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _)
              ->
                Ok ()
            | key, _ -> err "%s: %s.%s must be a scalar" what k key)
          kvs
      in
      Ok kvs
  | _ -> err "%s: %S must be an object" what k

let check_manifest gate m =
  let* bench = str "manifest" "bench" m in
  let* () =
    if bench = gate.bench then Ok ()
    else err "manifest: bench %S, wanted %S" bench gate.bench
  in
  let* commit = str "manifest" "commit" m in
  let* () = if commit = "" then err "manifest: empty commit" else Ok () in
  let* () =
    match Json.member "cores" m with
    | Some (Json.Int c) when c >= 1 -> Ok ()
    | _ -> err "manifest: \"cores\" must be a positive int"
  in
  let* _ = str "manifest" "ocaml" m in
  let* () =
    match Json.member "seed" m with
    | Some (Json.Int _) -> Ok ()
    | _ -> err "manifest: \"seed\" must be an int"
  in
  let* _ = bool "manifest" "smoke" m in
  Ok ()

(* a row's shape and its required metrics; returns (name, clean) *)
let check_row gate r =
  let* name = str "row" "name" r in
  let what = Fmt.str "row %S" name in
  let* _ = scalars what "params" r in
  let* metrics = scalars what "metrics" r in
  let* () =
    all
      (fun (k, kind) ->
        match (kind, List.assoc_opt k metrics) with
        | Num, Some (Json.Int _ | Json.Float _) | Bool, Some (Json.Bool _) ->
            Ok ()
        | _, None -> err "%s: missing metric %S" what k
        | Num, Some _ -> err "%s: metric %S must be a number" what k
        | Bool, Some _ -> err "%s: metric %S must be a bool" what k)
      gate.metrics
  in
  let* clean = bool what "clean" r in
  Ok (name, clean)

let check_names gate names =
  let rec dup = function
    | [] -> None
    | n :: rest -> if List.mem n rest then Some n else dup rest
  in
  match dup names with
  | Some n -> err "duplicate row %S" n
  | None -> (
      match
        ( List.find_opt (fun n -> not (List.mem n gate.rows)) names,
          List.find_opt (fun n -> not (List.mem n names)) gate.rows )
      with
      | Some n, _ -> err "unexpected row %S" n
      | None, Some n -> err "missing row %S" n
      | None, None ->
          if names = gate.rows then Ok ()
          else
            err "rows out of order: wanted [%s]" (String.concat "; " gate.rows))

let validate gate doc =
  let* s = str "document" "schema" doc in
  let* () = if s = schema then Ok () else err "bad schema %S, wanted %S" s schema in
  let* m = field "document" "manifest" doc in
  let* () = check_manifest gate m in
  let* rows =
    match Json.member "rows" doc with
    | Some (Json.List rs) -> Ok rs
    | _ -> err "document: \"rows\" must be a list"
  in
  let* checked =
    List.fold_left
      (fun acc r ->
        let* acc = acc in
        let* c = check_row gate r in
        Ok (c :: acc))
      (Ok []) rows
  in
  let checked = List.rev checked in
  let* () = check_names gate (List.map fst checked) in
  let* clean = bool "document" "clean" doc in
  if clean = List.for_all snd checked then Ok ()
  else err "document clean=%b disagrees with its rows" clean

(* --- the one writer ------------------------------------------------------- *)

let emit ?path gate ~seed ~smoke rows =
  let doc = to_json { manifest = manifest ~bench:gate.bench ~seed ~smoke; rows } in
  let* () =
    Result.map_error (Fmt.str "refusing to write: %s") (validate gate doc)
  in
  let* () =
    match path with
    | None -> Ok ()
    | Some path -> (
        match Json.to_file path doc with
        | exception Sys_error m -> Error m
        | () -> (
            (* validate what actually landed on disk, not the value we
               meant to write *)
            match Json.of_file path with
            | exception Sys_error m -> Error m
            | Error m -> err "read-back of %s: %s" path m
            | Ok disk ->
                Result.map_error
                  (Fmt.str "read-back of %s: %s" path)
                  (validate gate disk)))
  in
  match List.filter (fun (r : row) -> not r.clean) rows with
  | [] -> Ok ()
  | dirty ->
      err "%d of %d rows not clean: %s" (List.length dirty)
        (List.length rows)
        (String.concat ", " (List.map (fun (r : row) -> r.name) dirty))
