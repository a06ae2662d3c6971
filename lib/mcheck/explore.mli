(** Bounded systematic schedule exploration (stateless model checking).

    Where the fuzzer samples schedules and the scripted adversary
    replays one known-bad schedule, this module enumerates {e all}
    schedules of a small scenario by depth-first search with replay:
    every branch re-executes the run from a fresh simulator, following
    a recorded prefix of event choices and then diverging.  On tiny
    configurations the search is exhaustive, upgrading "no violation
    found" from a sampling statement to a proof over the bounded
    scenario.

    Scenario semantics: each client runs its operations in program
    order; an operation is invoked eagerly as soon as the client is
    free (so concurrency between clients is maximal, which only
    strengthens the check).  Exploration stops a branch when every
    operation has returned — responses that would fire after the last
    return cannot affect any recorded result — or when no event is
    enabled (a stuck state, recorded separately).

    The total number of fired events across all branches is capped;
    [exhaustive] in the result tells whether the cap was hit. *)

open Regemu_bounds
open Regemu_objects
open Regemu_sim
open Regemu_history

(** What each client does, in program order. *)
type script = (Id.Client.t * Trace.hop list) list

(** When operations are invoked:
    - [Eager]: each client invokes its next operation as soon as it is
      free — maximal concurrency across clients;
    - [Sequential]: one high-level operation at a time, in script order
      across all clients — the write-sequential runs of the paper's
      lower bound, where all the adversarial freedom lives in the
      low-level response timing. *)
type mode = Eager | Sequential

(** A scenario builds a fresh system and returns, for every client
    mentioned in the script, a function invoking one operation. *)
type scenario = {
  params : Params.t;
  mode : mode;
  crashes : int;  (** crash choices available per schedule *)
  make : unit -> Sim.t * (Id.Client.t -> Trace.hop -> Sim.call) * script;
}

(** Build a scenario for an emulation factory: [writer_ops.(i)] is the
    list of values writer [i] writes; [reader_ops] is the number of
    reads performed by each of [readers] extra clients.

    [crashes] adds crash {e timing} to the explored choices: at every
    step the environment may also crash any correct server, up to
    [crashes] times per schedule.  Exhaustive exploration then covers
    every interleaving {e and} every crash placement — at a heavy
    multiplicative cost, so keep the scenario tiny. *)
val emulation_scenario :
  Regemu_core.Emulation.factory ->
  Params.t ->
  ?mode:mode ->
  ?crashes:int ->
  writer_ops:Value.t list list ->
  readers:int ->
  reads_each:int ->
  unit ->
  scenario

(** A live run of a scenario that can be advanced one chosen transition
    at a time, auto-invoking eligible script operations after every
    event.  The brute-force search below and the DPOR engine
    ({!Dpor}) both drive scenarios through this interface. *)
module Session : sig
  type t

  (** One transition: fire an enabled simulator event, or crash a
      server. *)
  type choice = Event of Sim.event | Crash of Id.Server.t

  (** Fresh run, with the initially eligible operations invoked. *)
  val create : scenario -> t

  val sim : t -> Sim.t
  val calls : t -> Sim.call list

  (** [fire t c] takes choice [c], which must be available now (an
      enabled event, or a server not yet crashed), then auto-invokes. *)
  val fire : t -> choice -> unit

  (** [advance t idx] fires the [idx]-th choice: indices below the
      number of enabled simulator events fire that event; the rest
      index into {!crash_candidates}.  Auto-invokes afterwards. *)
  val advance : t -> int -> unit

  (** Every scripted operation invoked and returned. *)
  val finished : t -> bool

  (** Servers that may still be crashed, in choice order — empty once
      the scenario's crash budget is spent. *)
  val crash_candidates : t -> Id.Server.t list

  val enabled_events : t -> Sim.event list

  (** Number of choices available now (events + crashes). *)
  val width : t -> int

  (** [replay scenario choices] rebuilds a run and fires [choices] in
      order — runs are deterministic, so this reproduces the state
      exactly. *)
  val replay : scenario -> choice list -> t
end

type result = {
  terminal_runs : int;  (** complete schedules explored *)
  distinct_histories : int;
      (** semantically distinct high-level histories among the
          terminal runs — usually far fewer than the schedules *)
  stuck_runs : int;  (** schedules ending with no enabled event *)
  fired_events : int;  (** total events fired across all replays *)
  exhaustive : bool;  (** the whole space was covered within budget *)
  max_depth : int;
  ws_safe_violations : History.t list;  (** first few violating runs *)
  ws_regular_violations : History.t list;
  first_violation_at : int option;
      (** total fired events when the first violation surfaced *)
}

val result_pp : result Fmt.t

(** [run scenario ~max_fired] explores depth-first until done or until
    [max_fired] events have been fired in total.  With
    [~stop_on_violation:true] the search also stops at the first
    violating run (useful as a bug-finding mode). *)
val run : ?stop_on_violation:bool -> scenario -> max_fired:int -> result
