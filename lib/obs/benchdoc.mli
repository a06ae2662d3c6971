(** The one BENCH document format, [regemu-bench/3], and the only code
    that builds or checks one.

    {v
    { "schema": "regemu-bench/3",
      "manifest": { "bench", "commit", "cores", "ocaml", "seed", "smoke" },
      "rows": [ { "name", "params": {..}, "metrics": {..}, "clean" } ],
      "clean": <AND of the rows' clean> }
    v}

    A row's [params] hold what was asked for (algo, backend, clients,
    f, n, load, arm, zipf, ...), its [metrics] what was measured; both
    are objects of scalars.  Row names are unique within a document.

    Each bench's content gate is data ({!gate}), not code: the row
    names it must carry, in order, and the metric keys every row must
    hold. *)

val schema : string
(** ["regemu-bench/3"] *)

type manifest = {
  bench : string;  (** which bench wrote the file, e.g. ["saturate"] *)
  commit : string;
      (** [git rev-parse HEAD], suffixed ["-dirty"] when tracked files
          differ from it; ["unknown"] without git *)
  cores : int;  (** [Domain.recommended_domain_count ()] *)
  ocaml : string;  (** [Sys.ocaml_version] *)
  seed : int;
  smoke : bool;
}

(** The manifest of a run made now, by this binary, on this machine. *)
val manifest : bench:string -> seed:int -> smoke:bool -> manifest

(** The manifest's [commit] from the output lines of [git rev-parse
    HEAD] ([head]) and [git status --porcelain --untracked-files=no]
    ([status]), [None] where the command failed: the SHA, with
    ["-dirty"] appended when [status] lists any changed tracked file. *)
val commit_label : head:string list option -> status:string list option -> string

type row = {
  name : string;
  params : (string * Json.t) list;
  metrics : (string * Json.t) list;
  clean : bool;
}

type t = { manifest : manifest; rows : row list }

(** The document; its [clean] is the AND of the rows'. *)
val to_json : t -> Json.t

type kind = Num  (** an [Int] or a [Float] *) | Bool

type gate = {
  bench : string;  (** the manifest's [bench] *)
  rows : string list;  (** the row names, exactly and in this order *)
  metrics : (string * kind) list;  (** required on every row *)
}

(** Checks a document against the shape above and against [gate]:
    schema tag, a full manifest, scalar [params]/[metrics], unique row
    names equal to [gate.rows], every required metric present with its
    kind, and a document [clean] equal to the AND of its rows. *)
val validate : gate -> Json.t -> (unit, string) result

(** [emit ?path gate ~seed ~smoke rows] builds the document of a run
    made now ({!manifest} [~bench:gate.bench]) and validates it; with
    [path] it writes the file, reads the bytes back and validates them
    again.  [Error] on the first failure, and also when a row is not
    clean (naming the dirty rows), so a caller's exit code is
    [Error] → 1. *)
val emit :
  ?path:string -> gate -> seed:int -> smoke:bool -> row list -> (unit, string) result
