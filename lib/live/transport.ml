(* The transport seam: one message-fabric API, three backends.

   [Threads] is the seeded in-process courier fabric
   ({!Transport_courier}) — the deterministic backend, and the only
   one a {!Sched_hook} can drive, so the presence of a scheduler
   forces it regardless of the configured backend.  [Domains] runs
   each server lane in its own OCaml 5 domain over lock-free MPSC
   rings ({!Transport_domains}); [Socket] runs each server as a
   forked process behind the binary codec ({!Transport_socket}).
   Everything above this module — Cluster, the algorithms, the
   nemesis, the checkers — is backend-agnostic. *)

type backend = Transport_intf.backend = Threads | Domains | Socket

let backend_name = Transport_intf.backend_name
let backend_of_name = Transport_intf.backend_of_name
let backend_pp = Transport_intf.backend_pp

type dest = Transport_intf.dest = To_server of int | To_client of int

type envelope = Transport_intf.envelope = {
  src : int;
  dest : dest;
  payload : Regemu_netsim.Proto.payload;
}

type config = Transport_intf.config = {
  couriers : int;
  delay_prob : float;
  max_delay_us : int;
  dup_prob : float;
  drop_prob : float;
  reorder : bool;
  sharded : bool;
  backend : backend;
  seed : int;
}

let default_config ~seed =
  {
    couriers = 2;
    delay_prob = 0.0;
    max_delay_us = 0;
    dup_prob = 0.0;
    drop_prob = 0.0;
    reorder = true;
    sharded = true;
    backend = Threads;
    seed;
  }

(* the scheduler owns all concurrency in a DST run: only the courier
   fabric cooperates with it, so [?sched] wins over [cfg.backend] *)
let effective_backend ?sched cfg =
  match sched with Some _ -> Threads | None -> cfg.backend

type t =
  | C of Transport_courier.t
  | D of Transport_domains.t
  | S of Transport_socket.t

let create ?sched ?sink ?server_regs cfg ~servers ~deliver =
  match effective_backend ?sched cfg with
  | Threads -> C (Transport_courier.create ?sched ?sink cfg ~servers ~deliver)
  | Domains -> D (Transport_domains.create ?sink cfg ~servers ~deliver)
  | Socket ->
      S
        (Transport_socket.create ?sink cfg ~servers ~deliver
           ~server_regs:(Option.value server_regs ~default:(fun _ -> 0)))

let backend = function C _ -> Threads | D _ -> Domains | S _ -> Socket

let start = function
  | C x -> Transport_courier.start x
  | D x -> Transport_domains.start x
  | S x -> Transport_socket.start x

let send t env =
  match t with
  | C x -> Transport_courier.send x env
  | D x -> Transport_domains.send x env
  | S x -> Transport_socket.send x env

let set_server_up t ~server v =
  match t with
  | C _ -> ()  (* courier delivery is up-agnostic: the cluster's backlog gates *)
  | D x -> Transport_domains.set_server_up x ~server v
  | S x -> Transport_socket.set_server_up x ~server v

let split t ~groups ~clients_with =
  match t with
  | C x -> Transport_courier.split x ~groups ~clients_with
  | D x -> Transport_domains.split x ~groups ~clients_with
  | S x -> Transport_socket.split x ~groups ~clients_with

let heal = function
  | C x -> Transport_courier.heal x
  | D x -> Transport_domains.heal x
  | S x -> Transport_socket.heal x

let set_drop t ?requests ?replies () =
  match t with
  | C x -> Transport_courier.set_drop x ?requests ?replies ()
  | D x -> Transport_domains.set_drop x ?requests ?replies ()
  | S x -> Transport_socket.set_drop x ?requests ?replies ()

let reachable t ~server =
  match t with
  | C x -> Transport_courier.reachable x ~server
  | D x -> Transport_domains.reachable x ~server
  | S x -> Transport_socket.reachable x ~server

let set_slow t ~server us =
  match t with
  | C x -> Transport_courier.set_slow x ~server us
  | D x -> Transport_domains.set_slow x ~server us
  | S x -> Transport_socket.set_slow x ~server us

let slow_us t ~server =
  match t with
  | C x -> Transport_courier.slow_us x ~server
  | D x -> Transport_domains.slow_us x ~server
  | S x -> Transport_socket.slow_us x ~server

let freeze t ~server =
  match t with
  | C x -> Transport_courier.freeze x ~server
  | D x -> Transport_domains.freeze x ~server
  | S x -> Transport_socket.freeze x ~server

let thaw t ~server =
  match t with
  | C x -> Transport_courier.thaw x ~server
  | D x -> Transport_domains.thaw x ~server
  | S x -> Transport_socket.thaw x ~server

let frozen t ~server =
  match t with
  | C x -> Transport_courier.frozen x ~server
  | D x -> Transport_domains.frozen x ~server
  | S x -> Transport_socket.frozen x ~server

let heal_gray = function
  | C x -> Transport_courier.heal_gray x
  | D x -> Transport_domains.heal_gray x
  | S x -> Transport_socket.heal_gray x

let stop = function
  | C x -> Transport_courier.stop x
  | D x -> Transport_domains.stop x
  | S x -> Transport_socket.stop x

let lanes = function
  | C x -> Transport_courier.lanes x
  | D x -> Transport_domains.lanes x
  | S x -> Transport_socket.lanes x

let sent = function
  | C x -> Transport_courier.sent x
  | D x -> Transport_domains.sent x
  | S x -> Transport_socket.sent x

let delivered = function
  | C x -> Transport_courier.delivered x
  | D x -> Transport_domains.delivered x
  | S x -> Transport_socket.delivered x

let duplicated = function
  | C x -> Transport_courier.duplicated x
  | D x -> Transport_domains.duplicated x
  | S x -> Transport_socket.duplicated x

let delayed = function
  | C x -> Transport_courier.delayed x
  | D x -> Transport_domains.delayed x
  | S x -> Transport_socket.delayed x

let slowed = function
  | C x -> Transport_courier.slowed x
  | D x -> Transport_domains.slowed x
  | S x -> Transport_socket.slowed x

let dropped = function
  | C x -> Transport_courier.dropped x
  | D x -> Transport_domains.dropped x
  | S x -> Transport_socket.dropped x

let cut = function
  | C x -> Transport_courier.cut x
  | D x -> Transport_domains.cut x
  | S x -> Transport_socket.cut x
