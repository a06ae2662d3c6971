include Abd.Make (Runtime.Net)
