(* Order statistics over latency samples.  Percentiles are nearest-rank
   on a sorted copy, so a reported p99 is always a measured sample. *)

(* A growable int buffer: load threads append one sample per operation
   without allocating a list cell each time. *)
type buf = { mutable a : int array; mutable len : int }

let buf () = { a = Array.make 4096 0; len = 0 }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let sorted bufs =
  let n = List.fold_left (fun acc b -> acc + b.len) 0 bufs in
  let a = Array.make n 0 in
  ignore
    (List.fold_left
       (fun off b ->
         Array.blit b.a 0 a off b.len;
         off + b.len)
       0 bufs);
  Array.sort compare a;
  a

let sorted_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest rank: the smallest sample with at least [p]% of the samples
   at or below it *)
let rank n p =
  let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
  max 0 (min (n - 1) r)

let pct a p = if Array.length a = 0 then 0 else a.(rank (Array.length a) p)

(* how many samples lie strictly beyond the [p]th percentile's rank *)
let above a p =
  let n = Array.length a in
  if n = 0 then 0 else n - 1 - rank n p

let median_float l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
