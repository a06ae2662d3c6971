(** A thread-safe FIFO mailbox built on [Mutex]/[Condition].

    The unit of server-side asynchrony under a deterministic
    scheduler: every server actor drains one mailbox, every courier
    actor pushes into them.  (Without a scheduler servers have no
    thread and no mailbox: they are stepped by the delivering
    thread.)  Delivery is exactly-once — an item pushed before [close] is
    popped by exactly one consumer (the transport layer, not the
    mailbox, is where duplication and reordering are injected).

    [close] is {e drain-then-None}: it stops further pushes and wakes
    blocked poppers, but items already queued remain poppable — a
    server asked to shut down still processes the requests it has
    accepted before reporting end-of-stream.  Only once the queue is
    empty do [pop]/[pop_batch] return [None]. *)

type 'a t

(** [create ?sched ()] — with [sched], blocking pops park on the
    cooperative scheduler instead of the condvar ({!Sched_hook}). *)
val create : ?sched:Sched_hook.t -> unit -> 'a t

(** [push t x] appends [x].  A no-op after {!close}. *)
val push : 'a t -> 'a -> unit

(** [pop t] blocks until an item is available and removes it.  [None]
    once the mailbox has been closed {e and} drained. *)
val pop : 'a t -> 'a option

(** Non-blocking variant: [None] when currently empty. *)
val try_pop : 'a t -> 'a option

(** [pop_batch t ~max] blocks until at least one item is available and
    removes up to [max] of them, oldest first — one lock acquisition
    and at most one condvar wait for a whole burst.  [None] once
    closed and drained.  Raises [Invalid_argument] if [max < 1]. *)
val pop_batch : 'a t -> max:int -> 'a list option

val length : 'a t -> int

(** Stop accepting pushes and wake all blocked poppers; queued items
    stay poppable, then pops return [None]. *)
val close : 'a t -> unit

(** Total items accepted by [push] (monotone; for accounting tests). *)
val pushed : 'a t -> int

(** Total items handed out by [pop]/[try_pop]. *)
val popped : 'a t -> int
