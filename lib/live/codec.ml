(* The length-prefixed binary wire codec of the [Socket] backend.

   Frame: [len : u32 BE][body], where the body is one {!msg}.  All
   integers are 8-byte big-endian two's complement (OCaml ints fit);
   strings are u32-length-prefixed bytes; values and payloads are
   tagged unions in declaration order.  The encoding is canonical —
   one byte string per message — so decode-then-encode is the
   identity on well-formed frames, which the round-trip tests pin
   down.  Framing is transport-neutral: the same bytes work over a
   Unix-domain socket today and a TCP stream tomorrow. *)

open Regemu_objects
open Regemu_netsim

exception Malformed of string

type msg =
  | Env of Transport_intf.envelope
  | Ensure_regs of int
      (* control: grow the server's register file to [n] cells, so
         parent-side [alloc_reg] calls reach an already-running child *)

let bad fmt = Fmt.kstr (fun s -> raise (Malformed s)) fmt

(* refuse absurd frames before allocating for them *)
let max_frame = 16 * 1024 * 1024

(* --- primitive writers -------------------------------------------------- *)

let add_int b n =
  let tmp = Bytes.create 8 in
  Bytes.set_int64_be tmp 0 (Int64.of_int n);
  Buffer.add_bytes b tmp

let add_u32 b n =
  let tmp = Bytes.create 4 in
  Bytes.set_int32_be tmp 0 (Int32.of_int n);
  Buffer.add_bytes b tmp

let add_byte b n = Buffer.add_char b (Char.chr (n land 0xff))

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* --- primitive readers -------------------------------------------------- *)

type rd = { s : string; mutable pos : int }

let need r n what =
  if r.pos + n > String.length r.s then bad "truncated %s" what

let get_byte r what =
  need r 1 what;
  let v = Char.code r.s.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_int r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_be r.s r.pos) in
  r.pos <- r.pos + 8;
  v

let get_u32 r what =
  need r 4 what;
  let v = Int32.to_int (String.get_int32_be r.s r.pos) in
  r.pos <- r.pos + 4;
  if v < 0 then bad "negative length in %s" what;
  v

let get_str r what =
  let n = get_u32 r what in
  need r n what;
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

(* --- values -------------------------------------------------------------- *)

let rec add_value b = function
  | Value.Unit -> add_byte b 0
  | Value.Bool v ->
      add_byte b 1;
      add_byte b (if v then 1 else 0)
  | Value.Int n ->
      add_byte b 2;
      add_int b n
  | Value.Str s ->
      add_byte b 3;
      add_str b s
  | Value.Pair (l, r) ->
      add_byte b 4;
      add_value b l;
      add_value b r

let rec get_value r =
  match get_byte r "value tag" with
  | 0 -> Value.Unit
  | 1 -> (
      match get_byte r "bool" with
      | 0 -> Value.Bool false
      | 1 -> Value.Bool true
      | n -> bad "bool byte %d" n)
  | 2 -> Value.Int (get_int r "int")
  | 3 -> Value.Str (get_str r "str")
  | 4 ->
      let l = get_value r in
      let rv = get_value r in
      Value.Pair (l, rv)
  | n -> bad "value tag %d" n

(* --- payloads ------------------------------------------------------------ *)

let add_payload b = function
  | Proto.Query { rid } ->
      add_byte b 0;
      add_int b rid
  | Proto.Query_reply { rid; stored } ->
      add_byte b 1;
      add_int b rid;
      add_value b stored
  | Proto.Update { rid; proposed } ->
      add_byte b 2;
      add_int b rid;
      add_value b proposed
  | Proto.Update_reply { rid } ->
      add_byte b 3;
      add_int b rid
  | Proto.Reg_read { rid; reg } ->
      add_byte b 4;
      add_int b rid;
      add_int b reg
  | Proto.Reg_read_reply { rid; stored } ->
      add_byte b 5;
      add_int b rid;
      add_value b stored
  | Proto.Reg_write { rid; reg; proposed } ->
      add_byte b 6;
      add_int b rid;
      add_int b reg;
      add_value b proposed
  | Proto.Reg_write_reply { rid } ->
      add_byte b 7;
      add_int b rid
  | Proto.Kquery { rid; key } ->
      add_byte b 8;
      add_int b rid;
      add_int b key
  | Proto.Kquery_reply { rid; key; stored } ->
      add_byte b 9;
      add_int b rid;
      add_int b key;
      add_value b stored
  | Proto.Kupdate { rid; key; proposed } ->
      add_byte b 10;
      add_int b rid;
      add_int b key;
      add_value b proposed
  | Proto.Kupdate_reply { rid; key } ->
      add_byte b 11;
      add_int b rid;
      add_int b key
  | Proto.Cquery { rid } ->
      add_byte b 12;
      add_int b rid
  | Proto.Cquery_reply { rid; slots } ->
      add_byte b 13;
      add_int b rid;
      add_u32 b (List.length slots);
      List.iter
        (fun (slot, v) ->
          add_int b slot;
          add_value b v)
        slots
  | Proto.Cwrite { rid; slot; proposed } ->
      add_byte b 14;
      add_int b rid;
      add_int b slot;
      add_value b proposed
  | Proto.Cwrite_reply { rid; slot } ->
      add_byte b 15;
      add_int b rid;
      add_int b slot

let get_payload r =
  match get_byte r "payload tag" with
  | 0 -> Proto.Query { rid = get_int r "rid" }
  | 1 ->
      let rid = get_int r "rid" in
      Proto.Query_reply { rid; stored = get_value r }
  | 2 ->
      let rid = get_int r "rid" in
      Proto.Update { rid; proposed = get_value r }
  | 3 -> Proto.Update_reply { rid = get_int r "rid" }
  | 4 ->
      let rid = get_int r "rid" in
      Proto.Reg_read { rid; reg = get_int r "reg" }
  | 5 ->
      let rid = get_int r "rid" in
      Proto.Reg_read_reply { rid; stored = get_value r }
  | 6 ->
      let rid = get_int r "rid" in
      let reg = get_int r "reg" in
      Proto.Reg_write { rid; reg; proposed = get_value r }
  | 7 -> Proto.Reg_write_reply { rid = get_int r "rid" }
  | 8 ->
      let rid = get_int r "rid" in
      Proto.Kquery { rid; key = get_int r "key" }
  | 9 ->
      let rid = get_int r "rid" in
      let key = get_int r "key" in
      Proto.Kquery_reply { rid; key; stored = get_value r }
  | 10 ->
      let rid = get_int r "rid" in
      let key = get_int r "key" in
      Proto.Kupdate { rid; key; proposed = get_value r }
  | 11 ->
      let rid = get_int r "rid" in
      Proto.Kupdate_reply { rid; key = get_int r "key" }
  | 12 -> Proto.Cquery { rid = get_int r "rid" }
  | 13 ->
      let rid = get_int r "rid" in
      let count = get_u32 r "slot count" in
      let slots = ref [] in
      for _ = 1 to count do
        let slot = get_int r "slot" in
        let v = get_value r in
        slots := (slot, v) :: !slots
      done;
      Proto.Cquery_reply { rid; slots = List.rev !slots }
  | 14 ->
      let rid = get_int r "rid" in
      let slot = get_int r "slot" in
      Proto.Cwrite { rid; slot; proposed = get_value r }
  | 15 ->
      let rid = get_int r "rid" in
      Proto.Cwrite_reply { rid; slot = get_int r "slot" }
  | n -> bad "payload tag %d" n

(* --- messages ------------------------------------------------------------ *)

let add_dest b = function
  | Transport_intf.To_server s ->
      add_byte b 0;
      add_int b s
  | Transport_intf.To_client c ->
      add_byte b 1;
      add_int b c

let get_dest r =
  match get_byte r "dest tag" with
  | 0 -> Transport_intf.To_server (get_int r "server")
  | 1 -> Transport_intf.To_client (get_int r "client")
  | n -> bad "dest tag %d" n

let encode msg =
  let b = Buffer.create 64 in
  (match msg with
  | Env env ->
      add_byte b 0xE0;
      add_int b env.Transport_intf.src;
      add_dest b env.dest;
      add_payload b env.payload
  | Ensure_regs n ->
      add_byte b 0xC0;
      add_int b n);
  Buffer.contents b

let decode s =
  let r = { s; pos = 0 } in
  let msg =
    match get_byte r "msg tag" with
    | 0xE0 ->
        let src = get_int r "src" in
        let dest = get_dest r in
        let payload = get_payload r in
        Env { Transport_intf.src; dest; payload }
    | 0xC0 -> Ensure_regs (get_int r "regs")
    | n -> bad "msg tag %d" n
  in
  if r.pos <> String.length s then
    bad "%d trailing bytes" (String.length s - r.pos);
  msg

(* --- framing ------------------------------------------------------------- *)

(* A frame reader over a byte source.  One [read] takes whatever the
   source has ready, and {!next} hands out every complete frame in it
   before reading again.  Bytes [lo, hi) of [rbuf] are buffered and
   not yet consumed; a partial frame is moved to the front before the
   next read, and the buffer grows to fit a frame larger than it. *)
type reader = {
  read : bytes -> int -> int -> int;
  mutable rbuf : bytes;
  mutable lo : int;
  mutable hi : int;
}

let reader ?(size = 65536) read =
  if size < 4 then invalid_arg "Codec.reader: size < 4";
  { read; rbuf = Bytes.create size; lo = 0; hi = 0 }

let fd_reader ?size fd =
  let rec read b pos len =
    try Unix.read fd b pos len
    with Unix.Unix_error (Unix.EINTR, _, _) -> read b pos len
  in
  reader ?size read

(* the body length of the frame at [lo], once its header is buffered *)
let header r =
  if r.hi - r.lo < 4 then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be r.rbuf r.lo) in
    if len <= 0 || len > max_frame then bad "frame length %d" len;
    Some len
  end

let buffered r =
  match header r with
  | Some len -> r.hi - r.lo >= 4 + len
  | None -> false
  | exception Malformed _ -> true

(* one read after the buffered bytes; [false] on a clean EOF *)
let fill r =
  let avail = r.hi - r.lo in
  if r.lo > 0 then begin
    Bytes.blit r.rbuf r.lo r.rbuf 0 avail;
    r.lo <- 0;
    r.hi <- avail
  end;
  let want = match header r with Some len -> 4 + len | None -> 4 in
  if want > Bytes.length r.rbuf then begin
    let b = Bytes.create (max want (2 * Bytes.length r.rbuf)) in
    Bytes.blit r.rbuf 0 b 0 avail;
    r.rbuf <- b
  end;
  match r.read r.rbuf r.hi (Bytes.length r.rbuf - r.hi) with
  | 0 -> if avail = 0 then false else bad "eof inside a frame (%d bytes)" avail
  | n ->
      r.hi <- r.hi + n;
      true

let rec next r =
  match header r with
  | Some len when r.hi - r.lo >= 4 + len ->
      let body = Bytes.sub_string r.rbuf (r.lo + 4) len in
      r.lo <- r.lo + 4 + len;
      Some (decode body)
  | _ -> if fill r then next r else None

(* An outbound frame buffer: {!add} appends frames, {!flush} gives the
   kernel as much as it takes.  Bytes [start, stop) of [wbuf] are
   framed but not yet written. *)
type writer = {
  wfd : Unix.file_descr;
  mutable wbuf : bytes;
  mutable start : int;
  mutable stop : int;
}

let writer wfd = { wfd; wbuf = Bytes.create 65536; start = 0; stop = 0 }

let discard w =
  w.start <- 0;
  w.stop <- 0

let add w msg =
  let body = encode msg in
  let n = String.length body in
  let need = 4 + n in
  if w.stop + need > Bytes.length w.wbuf then begin
    let live = w.stop - w.start in
    let cap = Bytes.length w.wbuf in
    let b =
      if live + need > cap then Bytes.create (max (live + need) (2 * cap))
      else w.wbuf
    in
    Bytes.blit w.wbuf w.start b 0 live;
    w.wbuf <- b;
    w.start <- 0;
    w.stop <- live
  end;
  Bytes.set_int32_be w.wbuf w.stop (Int32.of_int n);
  Bytes.blit_string body 0 w.wbuf (w.stop + 4) n;
  w.stop <- w.stop + need

let rec flush w =
  if w.start = w.stop then begin
    discard w;
    true
  end
  else
    match Unix.single_write w.wfd w.wbuf w.start (w.stop - w.start) with
    | n ->
        w.start <- w.start + n;
        flush w
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush w
