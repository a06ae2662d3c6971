(* The open-loop schedule of keyspace-open.  Which key operation [i]
   touches, and whether it writes, is the stream [regemu keyspace]
   issues ([Openload.is_write_op] / [Openload.key_of_op]); the due
   times are the benchmark's own Poisson arrivals, drawn from the seed.
   The cluster only ever sees the generated operations. *)

module Openload = Regemu_keyspace.Openload
module Rng = Regemu_sim.Rng

type op = { due_ns : int; key : int; write : bool }

let config ~seed ~keys ~zipf ~write_fraction ~rate ~count =
  {
    Openload.keys;
    zipf;
    arrival_rate = rate;
    total_ops = count;
    window = 2;
    write_fraction;
    seed;
  }

(* [Openload.key_of_op] rebuilds its zipf table on every call, which
   costs O(keys); a schedule of 10^4..10^5 operations over 10^5 keys
   cannot afford that per op.  This is the same draw with the table
   built once: the key draw of op [i] is the second draw of the op's
   (seed, i) generator, mapped through the cumulative zipf weights.
   [check_keys] proves the equality against the library on a sample. *)
let key_sampler (cfg : Openload.config) =
  let cum = Array.make cfg.keys 0.0 in
  let acc = ref 0.0 in
  for r = 0 to cfg.keys - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) cfg.zipf);
    cum.(r) <- !acc
  done;
  let total = cum.(cfg.keys - 1) in
  fun i ->
    let r = Rng.create ((cfg.seed * 0x9e3779b9) lxor (i * 0x85ebca6b)) in
    ignore (Rng.int r ~bound:1_000_000);
    let kdraw = Rng.int r ~bound:(1 lsl 30) in
    let u = float_of_int kdraw /. float_of_int (1 lsl 30) *. total in
    let lo = ref 0 and hi = ref (cfg.keys - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo

(* exponential gaps at [rate] per second, cumulative, in ns *)
let due_times ~seed ~rate ~count =
  let r = Rng.create (seed lxor 0x6f70656e) in
  let t = ref 0.0 in
  Array.init count (fun _ ->
      let u =
        (float_of_int (Rng.int r ~bound:(1 lsl 30)) +. 1.0)
        /. float_of_int ((1 lsl 30) + 1)
      in
      t := !t +. (-.Float.log u /. rate);
      int_of_float (!t *. 1e9))

let make ~seed ~keys ~zipf ~write_fraction ~rate ~count =
  let cfg = config ~seed ~keys ~zipf ~write_fraction ~rate ~count in
  let key = key_sampler cfg in
  let due = due_times ~seed ~rate ~count in
  Array.init count (fun i ->
      { due_ns = due.(i); key = key i; write = Openload.is_write_op cfg i })

(* indices [0, step, 2*step, ...] whose keys disagree with
   [Openload.key_of_op]; [] when the schedule is the library's stream *)
let check_keys ~seed ~keys ~zipf ~write_fraction ~rate sched ~samples =
  let count = Array.length sched in
  let cfg = config ~seed ~keys ~zipf ~write_fraction ~rate ~count in
  let step = max 1 (count / max 1 samples) in
  List.filter
    (fun i ->
      sched.(i).key <> Openload.key_of_op cfg i
      || sched.(i).write <> Openload.is_write_op cfg i)
    (List.init (min samples count) (fun j -> j * step))
