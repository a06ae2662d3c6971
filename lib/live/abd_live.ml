include Regemu_netsim.Abd.Make (Cluster)

let write t cl v = ignore (write t cl v)
