include Regemu_netsim.Cds.Make (Cluster)

let write t cl v = ignore (write t cl v)
