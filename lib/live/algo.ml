open Regemu_bounds

type t = Abd | Abd_wb | Alg2 | Cds

let all = [ Abd; Abd_wb; Alg2; Cds ]

let name = function
  | Abd -> "abd"
  | Abd_wb -> "abd-wb"
  | Alg2 -> "algorithm2"
  | Cds -> "cds"

let of_name = function
  | "abd" | "abd-max" -> Some Abd
  | "abd-wb" | "abd-max-atomic" -> Some Abd_wb
  | "algorithm2" | "alg2" -> Some Alg2
  | "cds" -> Some Cds
  | _ -> None

let cells t ~k ~f ~n =
  match t with
  | Abd | Abd_wb -> (2 * f) + 1
  | Alg2 -> Formulas.register_upper_bound (Params.make_exn ~k ~f ~n)
  | Cds -> k * ((2 * f) + 1)

let start t cluster ~f ~writers =
  match t with
  | Abd | Abd_wb ->
      let abd = Abd_live.create cluster ~f ~write_back_reads:(t = Abd_wb) () in
      (Abd_live.write abd, Abd_live.read abd)
  | Alg2 ->
      let p =
        Params.make_exn ~k:(List.length writers) ~f
          ~n:(Cluster.num_servers cluster)
      in
      let alg2 = Alg2_live.create cluster p ~writers () in
      (Alg2_live.write alg2, Alg2_live.read alg2)
  | Cds ->
      let cds = Cds_live.create cluster ~f ~writers () in
      (Cds_live.write cds, Cds_live.read cds)
