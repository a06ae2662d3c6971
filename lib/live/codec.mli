(** Length-prefixed binary codec for the {!Transport} [Socket]
    backend: every Proto payload (plain and keyed), wrapped in an
    envelope, as one [[len : u32 BE]][body] frame.

    The encoding is canonical — each message has exactly one byte
    representation — so [encode (decode s) = s] for every well-formed
    body [s].  Integers are 8-byte big-endian, strings u32-length
    prefixed, unions single-byte tagged.  The framing carries no
    process-local state, so the same codec serves a Unix-domain
    socketpair or a TCP stream. *)

exception Malformed of string
(** Raised on truncated input, an unknown tag, a non-canonical byte,
    trailing garbage, or an absurd frame length. *)

type msg =
  | Env of Transport_intf.envelope  (** a routed protocol message *)
  | Ensure_regs of int
      (** control, parent→child: grow the register file to [n] cells
          (idempotent), forwarding parent-side [alloc_reg] calls *)

(** One message body, unframed. *)
val encode : msg -> string

(** Inverse of {!encode} on exactly one body; raises {!Malformed}
    otherwise. *)
val decode : string -> msg

(** {2 Framing}

    Frames are read and written in batches: one [read] yields every
    complete frame it holds, and one [write] carries every frame queued
    since the last. *)

type reader

(** A reader over [read buf pos len], which returns the number of
    bytes it placed (at most [len]) and [0] only at end of input.  The
    buffer starts at [size] bytes (default 64 KiB, at least 4) and
    grows to fit a larger frame. *)
val reader : ?size:int -> (bytes -> int -> int -> int) -> reader

(** A reader over [Unix.read] on a descriptor, retrying [EINTR]. *)
val fd_reader : ?size:int -> Unix.file_descr -> reader

(** The next frame: from the buffer if one is complete there,
    otherwise after as many reads as it takes.  [None] on a clean EOF
    at a frame boundary, {!Malformed} on a mid-frame EOF or a bad
    frame. *)
val next : reader -> msg option

(** [true] when {!next} can return without reading: a complete frame
    (or a malformed header) is buffered. *)
val buffered : reader -> bool

type writer

(** An empty outbound buffer for the descriptor, starting at 64 KiB
    and growing as frames are added. *)
val writer : Unix.file_descr -> writer

(** Append one framed message; writes nothing. *)
val add : writer -> msg -> unit

(** Write the buffered frames, one [write] per call the kernel
    accepts; [true] once the buffer is empty.  On a blocking
    descriptor that is write-all.  On a non-blocking one a full kernel
    buffer returns [false] at once, the unwritten rest kept in order.
    Other [Unix_error]s propagate. *)
val flush : writer -> bool

(** Drop every byte not yet written. *)
val discard : writer -> unit
