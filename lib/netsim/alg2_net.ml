include Alg2.Make (Runtime.Net)
