include Regemu_netsim.Alg2.Make (Cluster)

let write t c v = ignore (write t c v)
