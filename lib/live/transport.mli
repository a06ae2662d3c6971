(** The live message fabric behind a pluggable backend seam: one
    nemesis-ready network API, three implementations.

    {ul
    {- [Threads] (the default): the seeded in-process courier fabric
       described below — deterministic per lane, DST-replayable, and
       the backend every existing digest was recorded against.}
    {- [Domains]: each server lane is its own OCaml 5 [Domain.t]
       draining a lock-free MPSC ring ({!Mpsc}); a send is one atomic
       exchange, with no lock or condvar on the path, and the lane's
       domain doubles as the server's execution context.  Fault
       rates and seeds are honoured, but decisions are made by the
       consuming domain, so runs are {e not} DST-replayable; delivery
       delays are served head-of-line, preserving per-destination
       FIFO.}
    {- [Socket]: each server is a forked process of the current
       executable speaking the length-prefixed binary {!Codec} over
       two Unix-domain stream sockets (TCP-ready framing).  A request
       to an idle server is written by the sending thread with one
       non-blocking write; otherwise a per-server writer thread sends
       the queued ones in one write.  Crash injection SIGKILLs the
       process; restarts exec a fresh image, so recovery is
       inherently amnesiac, and bytes in the kernel or not yet written
       die with the child (real message loss, absorbed by the retry
       layer).  [reorder]
       is ignored: a stream socket is FIFO.  Executables hosting this
       backend must call {!Transport_socket.child_check} first thing
       in [main].}}

    A {!Sched_hook} forces the [Threads] backend regardless of the
    configured one ({!effective_backend}): the deterministic scheduler
    owns all concurrency in a DST run, and only the courier fabric
    cooperates with it.

    The [Threads] backend: an asynchronous, reordering, duplicating,
    delaying — and, when asked, lossy and partitionable — network made
    of real threads, sharded into per-destination {e lanes}.

    [send] enqueues an envelope into the lane of its destination: one
    lane per server plus one lane for all client-bound replies (or a
    single shared lane with [sharded = false]).  Each lane has its own
    lock, condition variable, array-backed ring buffer ({!Ringbuf}),
    seeded RNG, and dedicated pool of {e courier} threads — so
    concurrent RPCs to different servers, and the replies streaming
    back, never contend on a common lock.  Couriers drain their lane in
    batches (one lock acquisition per batch) and hand each envelope to
    the [deliver] callback supplied at creation.

    The faults of the paper's asynchronous model are injected here,
    with configurable rates drawn from each lane's deterministic RNG:

    - {e reorder}: couriers pick a random queued envelope (an O(1)
      pick-and-swap on the ring buffer) instead of the oldest;
    - {e delay}: a courier sleeps before delivering, holding exactly
      the envelopes it drew delays for — its lane's other couriers
      keep delivering past it;
    - {e duplicate}: an envelope is enqueued twice (at-least-once
      delivery; the protocol layer must tolerate it);
    - {e drop}: a send is discarded at the lane, so delivery is
      at-most-once and the client layer must retransmit ({!Retry});
    - {e partition}: a dynamic reachability map over servers
      ({!split} / {!heal}); an envelope whose server-side endpoint is
      in a different group than the clients is cut, in both
      directions;
    - {e gray slowness}: a per-server added delivery delay
      ({!set_slow}) applied to every envelope whose link touches that
      server, in both directions — the replica is slow, not dead;
    - {e stutter}: a server's request lane can be frozen and thawed
      ({!freeze} / {!thaw}); queued requests wait, nothing is lost,
      and replies the server already produced still flow.

    When [reorder] is off and a lane is completely idle (no backlog,
    no in-flight delivery), [send] delivers on the calling thread —
    the same FIFO order with two context switches fewer.  [deliver]
    must therefore be safe to call from courier threads {e and} from
    sending threads.

    Determinism: each lane's fault stream is a pure function of the
    seed and that lane's send order, so single-threaded (or otherwise
    externally ordered) traffic replays exactly.

    Messages to a {e crashed but reachable} server still wait in its
    mailbox, indistinguishable from an arbitrarily slow server —
    exactly the asynchronous model's treatment of crashes.  Drops and
    cuts, by contrast, lose the message for good. *)

type backend = Transport_intf.backend = Threads | Domains | Socket

val backend_name : backend -> string
(** ["threads"], ["domains"], ["socket"] — the CLI/JSON spelling. *)

val backend_of_name : string -> backend option
val backend_pp : backend Fmt.t

type dest = Transport_intf.dest = To_server of int | To_client of int

type envelope = Transport_intf.envelope = {
  src : int;
  dest : dest;
  payload : Regemu_netsim.Proto.payload;
}

type config = Transport_intf.config = {
  couriers : int;  (** delivery threads {e per lane}; ≥ 2 interleaves *)
  delay_prob : float;  (** chance a delivery sleeps first *)
  max_delay_us : int;  (** uniform sleep bound, microseconds *)
  dup_prob : float;  (** chance a send is enqueued twice *)
  drop_prob : float;
      (** chance a send is discarded (initial rate for both requests
          and replies; adjustable at runtime with {!set_drop}) *)
  reorder : bool;  (** couriers pick a random queued envelope *)
  sharded : bool;
      (** one lane per destination (the default); [false] forces the
          single-queue fallback — every envelope through one lane.
          [Threads] only; the other backends are always sharded *)
  backend : backend;  (** which fabric carries the messages *)
  seed : int;
}

val default_config : seed:int -> config
(** [Threads] backend: 2 couriers per lane, sharded, reorder on, no
    delays, no duplication, no loss. *)

(** The backend a given configuration will actually run: [cfg.backend],
    except that a scheduler forces [Threads]. *)
val effective_backend : ?sched:Sched_hook.t -> config -> backend

type t

(** [create ?sched cfg ~servers ~deliver] builds the fabric for a
    cluster of [servers] server endpoints; no thread runs until
    {!start}.  With [sched], couriers run as cooperative actors and
    delivery delays elapse in virtual time ({!Sched_hook}) — and the
    backend is forced to [Threads].  With [sink] ({!Sink.none} by
    default), every lane records sampled
    [send]/[recv]/[drop]/[cut]/[dup]/[delay] point events on its own
    trace recorder and the message counters below register in the
    metrics registry.  [server_regs] (used by the [Socket] backend
    only) reports the parent-side register-cell count of a server, so
    freshly spawned or restarted children can mirror parent-side
    [alloc_reg] calls.  Raises [Invalid_argument] if a probability is
    outside [0,1], [couriers < 1], [servers < 1], or
    [max_delay_us < 0]. *)
val create :
  ?sched:Sched_hook.t ->
  ?sink:Sink.t ->
  ?server_regs:(int -> int) ->
  config ->
  servers:int ->
  deliver:(envelope -> unit) ->
  t

(** The backend this fabric runs on. *)
val backend : t -> backend

val start : t -> unit

(** [set_server_up t ~server up] tells the fabric about a crash or
    restart.  [Threads]: a no-op (the cluster gates: a down server's
    mail waits in its backlog, or in its actor's mailbox under a
    scheduler).
    [Domains]: the server's lane parks while down — queued messages
    wait, like mail to a crashed-but-reachable server.  [Socket]:
    down SIGKILLs the child process; up execs a fresh one (empty
    store) and resumes the parent-side outbox. *)
val set_server_up : t -> server:int -> bool -> unit

(** Enqueue an envelope (dropped silently after {!stop}). *)
val send : t -> envelope -> unit

(** {2 Hostile-network controls (the nemesis interface)} *)

(** [split t ~groups ~clients_with] installs a partition: server [s]
    is reachable iff its group is [List.nth groups clients_with] (the
    side the clients are on).  Servers not listed in any group are
    isolated.  Raises [Invalid_argument] on overlapping groups, a
    negative server id, or an out-of-range [clients_with]. *)
val split : t -> groups:int list list -> clients_with:int -> unit

(** Remove any partition: every server reachable again. *)
val heal : t -> unit

(** Adjust the message-loss rates at runtime (requests are
    client→server envelopes, replies server→client).  Raises
    [Invalid_argument] on a rate outside [0,1]. *)
val set_drop : t -> ?requests:float -> ?replies:float -> unit -> unit

(** Is [server] currently reachable from the clients? *)
val reachable : t -> server:int -> bool

(** {2 Gray-failure controls}

    Gray faults model a replica that is {e slow, not dead}: the
    quorum layers above must route around it rather than wait for it.
    All controls are runtime-adjustable from the nemesis, like
    {!split}/{!set_drop}. *)

(** [set_slow t ~server us] adds [us] microseconds to the delivery of
    every envelope on [server]'s link (requests to it and replies
    from it); [0] heals the link.  Raises [Invalid_argument] on a
    negative delay or an out-of-range server. *)
val set_slow : t -> server:int -> int -> unit

(** The current added delay on [server]'s link, microseconds. *)
val slow_us : t -> server:int -> int

(** [freeze t ~server] stops [server]'s request lane from draining:
    requests queue (nothing is dropped) until {!thaw}.  Replies from
    the server still flow.  Only effective with sharded lanes (the
    default); the single shared lane cannot freeze one server. *)
val freeze : t -> server:int -> unit

(** Resume a frozen request lane, delivering its backlog. *)
val thaw : t -> server:int -> unit

(** Is [server]'s request lane currently frozen? *)
val frozen : t -> server:int -> bool

(** Clear every slow link and frozen lane at once. *)
val heal_gray : t -> unit

(** Stop accepting sends, discard the queues, join the couriers. *)
val stop : t -> unit

(** {2 Accounting} *)

val lanes : t -> int  (** number of lanes (servers + 1, or 1) *)

val sent : t -> int  (** envelopes accepted, duplicates included *)

val delivered : t -> int
val duplicated : t -> int
val delayed : t -> int

val slowed : t -> int  (** envelopes held by a gray slow link *)

val dropped : t -> int  (** lost to the random drop rates *)

val cut : t -> int  (** lost to a partition *)
