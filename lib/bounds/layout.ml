type placement = Spread | Colocated | Naive
type cell = { set : int; index : int; server : int }
type t = { params : Params.t; placement : placement; sets : cell array array }

let make ?(placement = Spread) (p : Params.t) =
  let server ~set ~index =
    match placement with
    | Spread -> (set + index) mod p.n
    | Colocated -> index / 2 mod p.n
    | Naive -> index
  in
  let sizes =
    match placement with
    | Naive -> [ (2 * p.f) + 1 ]
    | Spread | Colocated -> Formulas.set_sizes p
  in
  let sets =
    List.mapi
      (fun set size ->
        Array.init size (fun index -> { set; index; server = server ~set ~index }))
      sizes
  in
  { params = p; placement; sets = Array.of_list sets }

let num_sets t = Array.length t.sets

let set t i =
  if i < 0 || i >= num_sets t then invalid_arg "Layout.set: no such set";
  t.sets.(i)

let set_index_for_slot t ~slot =
  let p = t.params in
  if slot < 0 || slot >= p.k then
    invalid_arg
      (Fmt.str "Layout.set_index_for_slot: slot %d not in [0,%d)" slot p.k);
  match t.placement with Naive -> 0 | Spread | Colocated -> slot / Formulas.z p

let cells t = Array.to_list t.sets |> List.concat_map Array.to_list
let on_server t s = List.filter (fun c -> c.server = s) (cells t)
let size t = Array.fold_left (fun acc s -> acc + Array.length s) 0 t.sets

let max_load t =
  List.fold_left
    (fun acc s -> max acc (List.length (on_server t s)))
    0
    (List.init t.params.n Fun.id)
