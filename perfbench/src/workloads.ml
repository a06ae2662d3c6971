(* The four workloads.  Each drives the public functions of the layers
   from outside and times those calls; no library code is changed.
   Load comes from one process with at most two load threads, so the
   numbers measure the program rather than the OS scheduler.

   An untraced run reports the end-to-end metrics.  A traced run
   measures once untraced (the baseline of the tracing overhead and of
   the end-to-end companions), once with a full-sampling trace, and
   then replays the workload's message mix through each layer. *)

open Regemu_objects
module Params = Regemu_bounds.Params
module Formulas = Regemu_bounds.Formulas
module Cluster = Regemu_live.Cluster
module Transport = Regemu_live.Transport
module Sink = Regemu_live.Sink
module Checker = Regemu_live.Checker
module Alg2_live = Regemu_live.Alg2_live
module Cds_live = Regemu_live.Cds_live
module Kspace = Regemu_keyspace.Kspace
module Kchecker = Regemu_keyspace.Kchecker
module Klog = Regemu_keyspace.Klog
module Dpor = Regemu_mcheck.Dpor
module Explore = Regemu_mcheck.Explore
module Proto = Regemu_netsim.Proto
module Clock = Regemu_obs.Clock
module Trace = Regemu_obs.Trace

(* --- the metric catalogue (BENCHMARK.json declares the same names) --- *)

let e2e =
  [
    ("setup_s", "s");
    ("cpu_us_per_op", "us");
    ("space_cells", "count");
  ]

let layers =
  [
    ("ops_per_s", "1/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("peak_rss_mb", "MB");
    ("client.write_p50_us", "us");
    ("client.read_p50_us", "us");
    ("cluster.await_p50_us", "us");
    ("cluster.op_self_p50_us", "us");
    ("cluster.msgs_per_op", "count");
    ("cluster.retries_per_op", "count");
    ("ringbuf.push_take_ns", "ns");
    ("proc.sys_cpu_share", "ratio");
    ("mpsc.push_pop_ns", "ns");
    ("mpsc.handoff_ns", "ns");
    ("codec.encode_ns", "ns");
    ("codec.decode_ns", "ns");
    ("codec.bytes_per_op", "B");
    ("proto.step_ns", "ns");
    ("histlog.invoke_return_ns", "ns");
    ("histlog.bytes_per_op", "B");
    ("checker.stop_s", "s");
    ("checker.ops_checked", "count");
    ("placement.replicas_ns", "ns");
    ("klog.resident_bytes_max", "B");
    ("kchecker.resident_ops_max", "count");
    ("kchecker.settled_writes", "count");
    ("kchecker.broken_keys", "count");
    ("kchecker.stop_s", "s");
    ("openload.backlog_max", "count");
    ("dpor.explored", "count");
    ("dpor.replayed_per_explored", "ratio");
    ("dpor.pruned", "count");
    ("dpor.sleep_skipped", "count");
    ("dpor.terminal_runs", "count");
    ("dpor.max_depth", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_p50", "ratio");
    ("trace.dropped", "ratio");
    ("proc.steal_share", "ratio");
    ("proc.core_speed", "ratio");
    ("failed_frac", "ratio");
    ("lateness_max_s", "s");
    ("checked_frac", "ratio");
    ("dpor_transitions_per_s", "1/s");
  ]

type workload = Register_sw | Register_mw | Keyspace_open | Search_dpor

let workloads =
  [
    ("register-sw", Register_sw);
    ("register-mw", Register_mw);
    ("keyspace-open", Keyspace_open);
    ("search-dpor", Search_dpor);
  ]

let backend_of = function
  | Register_sw -> "threads"
  | Register_mw -> "socket"
  | Keyspace_open -> "domains"
  | Search_dpor -> "none"

(* --- sizes ------------------------------------------------------------- *)

type size = {
  seconds : float;  (** measured load window *)
  warmup_s : float;  (** load before the window, not measured *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  keys : int;
  rate : float;  (** keyspace-open arrivals per second *)
  dpor_budget : int;  (** transitions per [Dpor.run] call *)
  replay_ns : int;  (** length of one timed batch of a layer replay *)
}

let full ~seconds =
  {
    seconds;
    warmup_s = Float.min 1.0 (seconds /. 10.0);
    setups = 15;
    keys = 100_000;
    (* two workers on the domains fabric held 2000 and 4000 ops/s with a
       backlog of tens of ops, crash included; half the higher rate leaves
       room for a slower machine *)
    rate = 2000.0;
    (* about 30 ms a call, so a 20 s window holds some 700 calls *)
    dpor_budget = 500;
    replay_ns = 20_000_000;
  }

(* what the tests run: every code path, a fraction of a second each *)
let small =
  {
    seconds = 0.3;
    warmup_s = 0.05;
    setups = 2;
    keys = 1000;
    rate = 400.0;
    dpor_budget = 300;
    replay_ns = 1_000_000;
  }

(* --- process measurements --------------------------------------------- *)

let now () = Int64.to_int (Clock.now_ns ())

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* fields after the command name of /proc/<pid>/stat, so index 11 is
   utime and 12 stime, in clock ticks *)
let stat_fields pid =
  Option.bind (read_file (Printf.sprintf "/proc/%s/stat" pid)) (fun s ->
      match String.rindex_opt s ')' with
      | None -> None
      | Some i ->
          Some
            (Array.of_list
               (String.split_on_char ' '
                  (String.trim (String.sub s (i + 1) (String.length s - i - 1))))))

(* live child processes, the socket backend's forked servers, from each
   thread's list of the children it forked *)
let children () =
  match Sys.readdir "/proc/self/task" with
  | exception Sys_error _ -> []
  | tids ->
      List.concat_map
        (fun tid ->
          match read_file (Printf.sprintf "/proc/self/task/%s/children" tid) with
          | Some pids -> List.filter (( <> ) "") (String.split_on_char ' ' (String.trim pids))
          | None -> [])
        (Array.to_list tids)

external process_cputime_ns : unit -> int = "perfbench_process_cputime_ns"
[@@noalloc]

let tids pid =
  match Sys.readdir (Printf.sprintf "/proc/%s/task" pid) with
  | exception Sys_error _ -> []
  | tids -> Array.to_list tids

(* on-CPU ns of every thread of process [pid]; exact for threads that are
   blocked, as a set-up's freshly started servers are *)
let tasks_ns pid =
  List.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "/proc/%s/task/%s/schedstat" pid tid) with
      | Some st -> (
          match String.split_on_char ' ' st with
          | ns :: _ -> acc + Option.value (int_of_string_opt ns) ~default:0
          | [] -> acc)
      | None -> acc)
    0 (tids pid)

external thread_cputime_ns : unit -> int = "perfbench_thread_cputime_ns"
[@@noalloc]

(* --- the reference speed ------------------------------------------------ *)

(* The host's core speed swings: on a two-vCPU virtual machine a fixed
   loop took from 27 to 51 ms of CPU time, in spells of five to twenty
   seconds, with the machine otherwise idle and no steal, and one
   Dpor.run call took from 19 to 30 ms from run to run.  So the CPU
   figures of the end-to-end metrics are scaled to a reference speed:
   the threads that spend the CPU time also time a fixed integer kernel
   now and then, and a figure is multiplied by the kernel's nominal time
   over its measured time.  The kernel allocates nothing, so the
   program's heap cannot change its speed. *)

let kernel_table = Array.init 4096 (fun i -> i * 7919)

let kernel () =
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land 4095 in
    acc := !acc + (kernel_table.(j) lxor !x)
  done;
  !acc

(* the kernel's CPU time at the reference speed, about what it takes on
   the machine above in its slower spells *)
let kernel_nominal_ns = 160_000

(* CPU ns of one run of the kernel on the calling thread *)
let kernel_ns () =
  let t0 = thread_cputime_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  thread_cputime_ns () - t0

(* how often a load thread times the kernel *)
let kernel_every_ns = 20_000_000

external confine : unit -> bool = "perfbench_confine"
external release : int -> unit = "perfbench_release"

(* [f ()] with this process confined to the CPU it runs on; then every
   thread of it and of its children gets its CPUs back, so the load runs
   on all of them *)
let on_one_cpu f =
  let confined = confine () in
  Fun.protect f ~finally:(fun () ->
      if confined then
        List.iter
          (fun pid -> List.iter (fun tid -> release (int_of_string tid)) (tids pid))
          ("self" :: children ()))

(* (user, system) CPU seconds of this process plus its live children *)
let cpu () =
  let t = Unix.times () in
  List.fold_left
    (fun (u, s) pid ->
      match stat_fields pid with
      | Some f when Array.length f > 12 ->
          let tick x = float_of_string x /. 100.0 in
          (u +. tick f.(11), s +. tick f.(12))
      | _ -> (u, s))
    (t.Unix.tms_utime, t.Unix.tms_stime)
    (children ())

(* peak resident set (VmHWM) in MB of this process and its children *)
let peak_rss_mb () =
  let hwm pid =
    match read_file (Printf.sprintf "/proc/%s/status" pid) with
    | None -> 0.0
    | Some s ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> (
                match String.split_on_char ' ' (String.trim v) with
                | kb :: _ -> (
                    match float_of_string_opt kb with
                    | Some kb -> kb /. 1024.0
                    | None -> acc)
                | [] -> acc)
            | _ -> acc)
          0.0 (String.split_on_char '\n' s)
  in
  List.fold_left (fun acc pid -> acc +. hwm pid) (hwm "self") (children ())

(* --- one measured phase ------------------------------------------------ *)

type window = {
  w_seconds : float;
  cpu_user : float;
  cpu_sys : float;
  minor_words : float;
  major : int;
  rss_mb : float;
}

(* what the main thread samples at the start of the window *)
type mark = { m_t : int; m_cpu : float * float; m_gc : Gc.stat }

let mark () = { m_t = now (); m_cpu = cpu (); m_gc = Gc.quick_stat () }

let close_window m =
  let u1, s1 = cpu () in
  let g = Gc.quick_stat () in
  let u0, s0 = m.m_cpu in
  {
    w_seconds = float_of_int (now () - m.m_t) /. 1e9;
    cpu_user = u1 -. u0;
    cpu_sys = s1 -. s0;
    minor_words = g.Gc.minor_words -. m.m_gc.Gc.minor_words;
    major = g.Gc.major_collections - m.m_gc.Gc.major_collections;
    rss_mb = peak_rss_mb ();
  }

let sleep_until t =
  let rec go () =
    let d = t - now () in
    if d > 0 then begin
      Thread.delay (Float.min 0.05 (float_of_int d /. 1e9));
      go ()
    end
  in
  go ()

(* A load thread's own counters; no two threads share one. *)
type loop = {
  lat : Pstats.buf;  (** per-op latency, ns, of ops started in the window *)
  mutable issued : int;
  mutable completed : int;
  mutable failed : int;
  mutable measured : int;  (** completed ops started in the window *)
  mutable late_max : int;  (** worst start-after-due, ns, in the window *)
  mutable kernel_ns : int;  (** CPU of the kernel runs in the window *)
  mutable kernels : int;
  mutable kernel_at : int;  (** when the kernel last ran *)
}

let loop () =
  {
    lat = Pstats.buf ();
    issued = 0;
    completed = 0;
    failed = 0;
    measured = 0;
    late_max = 0;
    kernel_ns = 0;
    kernels = 0;
    kernel_at = 0;
  }

(* times the kernel when the thread has not for [kernel_every_ns] *)
let sample_speed l t =
  if t - l.kernel_at >= kernel_every_ns then begin
    l.kernel_ns <- l.kernel_ns + kernel_ns ();
    l.kernels <- l.kernels + 1;
    l.kernel_at <- now ()
  end

type phase = {
  setup : (float * int) list;
      (** each set-up's CPU seconds, and the kernel's CPU ns just before *)
  lat : int array;  (** sorted, ns *)
  measured : int;
  issued : int;
  completed : int;
  failed : int;
  late_max_ns : int;
  win : window;
  obs : Gate.obs;
  checked_frac : float;
  write_frac : float;  (** completed ops that wrote, over all completed *)
  speed : float;  (** the kernel's nominal over its measured CPU time *)
  kernel_s : float;  (** CPU seconds the load threads spent in the kernel *)
  notes : (string * float) list;  (** workload-specific layer values *)
  stats : Cluster.stats option;
}

let phase_of ~setup ~(loops : loop list) ~win ~obs ~checked_frac ~write_frac ~notes ~stats =
  let sum f = List.fold_left (fun a (l : loop) -> a + f l) 0 loops in
  let issued = sum (fun l -> l.issued) in
  let completed = sum (fun l -> l.completed) in
  let failed = sum (fun l -> l.failed) in
  {
    setup;
    lat = Pstats.sorted (List.map (fun (l : loop) -> l.lat) loops);
    measured = sum (fun l -> l.measured);
    issued;
    completed;
    failed;
    late_max_ns = List.fold_left (fun a (l : loop) -> max a l.late_max) 0 loops;
    win;
    obs = { obs with Gate.issued; completed; failed };
    checked_frac;
    write_frac;
    speed =
      (let kernels = sum (fun l -> l.kernels) in
       if kernels = 0 then 1.0
       else float_of_int (kernel_nominal_ns * kernels) /. float_of_int (sum (fun l -> l.kernel_ns)));
    kernel_s = float_of_int (sum (fun l -> l.kernel_ns)) /. 1e9;
    notes;
    stats;
  }

(* the traced half of a run: a full-sampling trace and a registry on the
   cluster, and one recorder per load thread for the benchmark's own
   spans around the public calls *)
type tracing = { trace : Trace.t; sink : Sink.t }

let tracing () =
  let trace = Trace.create () in
  { trace; sink = Sink.make ~trace ~metrics:(Regemu_obs.Metrics.create ()) () }

let spanned rec_ name f =
  Sink.span_begin rec_ ~cat:"bench" name;
  match f () with
  | v ->
      Sink.span_end rec_ ~cat:"bench" name;
      v
  | exception e ->
      Sink.span_end rec_ ~cat:"bench" name;
      raise e

(* setup_s is the median of [n] set-ups of the CPU time each took: this
   process's, every thread included, plus that of the server processes
   it forked.  Wall time would count the CPU a hypervisor steals: on a
   two-vCPU virtual machine, the wall time of a socket set-up doubled
   from one run to the next as steal rose.  The set-ups run on one CPU:
   on two, a set-up's CPU time doubled in runs with high steal, since a
   thread waits on its own CPU for interrupts sent to a descheduled one.
   One uncounted set-up warms the code and the heap first, then one full
   major collection clears its garbage; a collection before every timed
   set-up would bank so much GC work that the load after 600 of them ran
   with almost no major collections and a heap of 330 MB, not 21 MB.
   Each timed set-up follows a run of the kernel, which gives the speed
   to scale it by.  All but the last set-up are torn down at once, the
   last is kept and measured.  The servers of a torn-down set-up are
   reaped before the next one starts, so every live child belongs to
   [build]. *)
let setups n build teardown =
  on_one_cpu (fun () ->
      teardown (build ());
      Gc.full_major ();
      let rec go k acc =
        let kn = kernel_ns () in
        let t0 = process_cputime_ns () in
        let sys = build () in
        let t1 = process_cputime_ns () in
        let forked = List.fold_left (fun a pid -> a + tasks_ns pid) 0 (children ()) in
        let dt = float_of_int (t1 - t0 + forked) /. 1e9 in
        if k <= 1 then ((dt, kn) :: acc, sys)
        else begin
          teardown sys;
          go (k - 1) ((dt, kn) :: acc)
        end
      in
      go (max 1 n) [])

let is_op_failure = function
  | Cluster.Unavailable _ | Cluster.Timeout _ -> true
  | _ -> false

(* --- closed loop (register-sw, register-mw) ----------------------------- *)

(* one closed-loop thread: the next op is due when the previous one
   returns, so its lateness is the generator's own gap between them *)
let closed_thread ~t_measure ~t_end ~rec_ ~name op l () =
  let last = ref (now ()) in
  while now () < t_end do
    if now () >= t_measure then sample_speed l (now ());
    let t0 = now () in
    let in_window = t0 >= t_measure in
    if in_window then l.late_max <- max l.late_max (t0 - !last);
    l.issued <- l.issued + 1;
    (match spanned rec_ name (fun () -> op l.issued) with
    | () ->
        let t1 = now () in
        l.completed <- l.completed + 1;
        if in_window then begin
          Pstats.push l.lat (t1 - t0);
          l.measured <- l.measured + 1
        end
    | exception e when is_op_failure e -> l.failed <- l.failed + 1);
    last := now ()
  done

type closed_sys = {
  cluster : Cluster.t;
  checker : Checker.t;
  threads : (string * string * (int -> unit)) list;
      (** recorder name, span name, op *)
  finish : unit -> Gate.obs;
      (** after the load, before the checker stops: final reads and the
          space count *)
}

(* Runs each (recorder name, span name, op) in a closed-loop thread of
   its own for the warm-up and then the measured window. *)
let closed_load ~size ~seconds sink threads =
  let t_measure = now () + int_of_float (size.warmup_s *. 1e9) in
  let t_end = t_measure + int_of_float (seconds *. 1e9) in
  let loops = List.map (fun _ -> loop ()) threads in
  let ths =
    List.map2
      (fun (rname, sname, op) l ->
        let rec_ = Sink.recorder sink ~name:rname in
        Thread.create (closed_thread ~t_measure ~t_end ~rec_ ~name:sname op l) ())
      threads loops
  in
  sleep_until t_measure;
  let m = mark () in
  sleep_until t_end;
  let win = close_window m in
  List.iter Thread.join ths;
  (loops, win)

let run_closed ~size ~seconds ~setups:n ?tracing build =
  let sink = match tracing with Some t -> t.sink | None -> Sink.none in
  let main = Sink.recorder sink ~name:"bench-main" in
  let shutdown c = spanned main "cluster.shutdown" (fun () -> Cluster.shutdown c) in
  let teardown s =
    ignore (spanned main "checker.stop" (fun () -> Checker.stop s.checker));
    shutdown s.cluster
  in
  let setup, sys = setups n (fun () -> build sink main) teardown in
  let loops, win = closed_load ~size ~seconds sink sys.threads in
  let obs = sys.finish () in
  let t0 = now () in
  let r = spanned main "checker.stop" (fun () -> Checker.stop sys.checker) in
  let stop_s = float_of_int (now () - t0) /. 1e9 in
  let stats = spanned main "cluster.stats" (fun () -> Cluster.stats sys.cluster) in
  shutdown sys.cluster;
  let verdict = Gate.verdict_of_ws r.Checker.ws in
  let completed kind =
    List.fold_left2
      (fun a (_, sname, _) (l : loop) -> if sname = kind then a + l.completed else a)
      0 sys.threads loops
  in
  let writes = completed "client.write" in
  phase_of ~setup ~loops ~win
    ~obs:{ obs with Gate.checker = Some verdict }
    ~checked_frac:(if verdict = Gate.Holds then 1.0 else 0.0)
    ~write_frac:(float_of_int writes /. float_of_int (max 1 (writes + completed "client.read")))
    ~notes:
      [ ("checker.stop_s", stop_s); ("checker.ops_checked", float_of_int r.Checker.ops_checked) ]
    ~stats:(Some stats)

(* a quiet fabric: no loss, delay, duplication or reordering *)
let quiet ~n ~seed backend =
  let base = Cluster.default_config ~n ~seed in
  {
    base with
    Cluster.transport =
      (* with reordering off a second courier per lane only adds a
         thread to contend for the runtime lock *)
      { base.Cluster.transport with Transport.reorder = false; couriers = 1; backend };
  }

let alg2_params = Params.make_exn ~k:1 ~f:1 ~n:3

let register_sw ~seed sink main =
  let p = alg2_params in
  let cluster =
    spanned main "cluster.create" (fun () ->
        Cluster.create ~sink (quiet ~n:3 ~seed Transport.Threads))
  in
  let w = Cluster.new_client cluster and r = Cluster.new_client cluster in
  let alg = Alg2_live.create cluster p ~writers:[ w ] () in
  spanned main "cluster.start" (fun () -> Cluster.start cluster);
  let checker = spanned main "checker.spawn" (fun () -> Checker.spawn cluster ()) in
  let base = seed * 1_000_000 in
  let last = ref None in
  let write i =
    let v = Value.Int (base + i) in
    Alg2_live.write alg w v;
    last := Some v
  in
  let read _ = ignore (Alg2_live.read alg r) in
  let finish () =
    let got = Alg2_live.read alg r in
    let final_read =
      match !last with
      | Some v when not (Value.equal got v) ->
          Some (Fmt.str "read %a after the last write of %a" Value.pp got Value.pp v)
      | _ -> None
    in
    let _, _, cells = Cluster.resident_space cluster in
    {
      Gate.empty with
      space_cells = cells;
      space_formula = Formulas.register_upper_bound p;
      final_read;
    }
  in
  {
    cluster;
    checker;
    threads = [ ("bench-writer", "client.write", write); ("bench-reader", "client.read", read) ];
    finish;
  }

(* CDS resident slots, counted by collecting every replica's store:
   the socket backend's stores live in the server processes *)
let cds_slots cluster cl ~replicas =
  let total = ref 0 and got = ref 0 in
  Cluster.locked cl (fun () ->
      for s = 0 to replicas - 1 do
        Cluster.rpc cluster ~src:cl s
          ~make:(fun rid -> Proto.Cquery { rid })
          ~handler:(fun reply ->
            (match reply with
            | Proto.Cquery_reply { slots; _ } -> total := !total + List.length slots
            | _ -> ());
            incr got)
      done);
  Cluster.await cluster cl (fun () -> !got >= replicas);
  !total

let register_mw ~seed sink main =
  let f = 1 and k = 2 in
  let cluster =
    spanned main "cluster.create" (fun () ->
        Cluster.create ~sink (quiet ~n:3 ~seed Transport.Socket))
  in
  let a = Cluster.new_client cluster and b = Cluster.new_client cluster in
  let r = Cluster.new_client cluster in
  let cds = Cds_live.create cluster ~f ~writers:[ a; b ] () in
  spanned main "cluster.start" (fun () -> Cluster.start cluster);
  let checker = spanned main "checker.spawn" (fun () -> Checker.spawn cluster ()) in
  let lasts = [| None; None |] in
  let writer ix cl i =
    let v = Value.Int ((seed * 1_000_000) + (i * 2) + ix) in
    Cds_live.write cds cl v;
    lasts.(ix) <- Some v
  in
  let finish () =
    let rec_ = Sink.recorder sink ~name:"bench-reader" in
    let reads = List.init 10 (fun _ -> spanned rec_ "client.read" (fun () -> Cds_live.read cds r)) in
    let finals = List.filter_map Fun.id (Array.to_list lasts) in
    let final_read =
      List.find_map
        (fun got ->
          if List.exists (Value.equal got) finals then None
          else Some (Fmt.str "read %a, not either writer's last write" Value.pp got))
        reads
    in
    {
      Gate.empty with
      space_cells = cds_slots cluster r ~replicas:((2 * f) + 1);
      space_formula = k * ((2 * f) + 1);
      final_read;
    }
  in
  {
    cluster;
    checker;
    threads =
      [ ("bench-writer-a", "client.write", writer 0 a); ("bench-writer-b", "client.write", writer 1 b) ];
    finish;
  }

(* --- open loop (keyspace-open) ------------------------------------------ *)

let ks_n = 7
let ks_f = 1
let ks_zipf = 0.99
let ks_write_fraction = 0.5

let schedule ~seed ~size =
  let count =
    int_of_float (Float.ceil (size.rate *. (size.warmup_s +. size.seconds)))
  in
  Openloop.make ~seed ~keys:size.keys ~zipf:ks_zipf
    ~write_fraction:ks_write_fraction ~rate:size.rate ~count

type ks_sys = { kcluster : Cluster.t; ks : Kspace.t; kchecker : Kchecker.t }

let build_keyspace ~seed sink main =
  let kcluster =
    spanned main "cluster.create" (fun () ->
        Cluster.create ~sink (quiet ~n:ks_n ~seed Transport.Domains))
  in
  let ks = Kspace.create kcluster ~f:ks_f () in
  spanned main "cluster.start" (fun () -> Cluster.start kcluster);
  let kchecker = spanned main "kchecker.spawn" (fun () -> Kchecker.spawn ~sink (Kspace.klog ks)) in
  { kcluster; ks; kchecker }

(* Reads on a key whose writes never overlapped in real time, and none
   of which failed, get a non-vacuous verdict from Kchecker; the share
   of completed reads that do, from the benchmark's own per-op log. *)
let checked_frac (sched : Openloop.op array) ~starts ~ends =
  let writes =
    List.sort compare
      (List.filter_map Fun.id
         (List.mapi
            (fun i (o : Openloop.op) ->
              if o.write && starts.(i) >= 0 then Some (o.key, starts.(i), ends.(i))
              else None)
            (Array.to_list sched)))
  in
  let broken = Hashtbl.create 64 in
  let rec scan prev = function
    | (k, s, e) :: rest ->
        let pe =
          match prev with
          | Some (pk, pe) when pk = k ->
              if s < pe then Hashtbl.replace broken k ();
              max pe e
          | _ -> e
        in
        if e < 0 then Hashtbl.replace broken k ();
        scan (Some (k, pe)) rest
    | [] -> ()
  in
  scan None writes;
  let reads = ref 0 and checked = ref 0 in
  Array.iteri
    (fun i (o : Openloop.op) ->
      if (not o.write) && ends.(i) >= 0 then begin
        incr reads;
        if not (Hashtbl.mem broken o.key) then incr checked
      end)
    sched;
  if !reads = 0 then 0.0 else float_of_int !checked /. float_of_int !reads

(* Two workers take ops off the schedule in order and start each at its
   due time, or at once when late; latency runs from the due time, so
   a stall is charged to every op that fell due during it.  Server 0 is
   crashed for the middle third of the measured window and restarted
   with its store (Persist). *)
let run_keyspace ~size ~seconds ~setups:n ~seed ?tracing sched =
  let sink = match tracing with Some t -> t.sink | None -> Sink.none in
  let main = Sink.recorder sink ~name:"bench-main" in
  let shutdown c = spanned main "cluster.shutdown" (fun () -> Cluster.shutdown c) in
  let teardown s =
    ignore (spanned main "kchecker.stop" (fun () -> Kchecker.stop s.kchecker));
    shutdown s.kcluster
  in
  let setup, sys = setups n (fun () -> build_keyspace ~seed sink main) teardown in
  let count = Array.length sched in
  let next = Atomic.make 0 in
  let started = Atomic.make 0 in
  let t0 = now () in
  let t_measure = t0 + int_of_float (size.warmup_s *. 1e9) in
  let t_end = t_measure + int_of_float (seconds *. 1e9) in
  (* each op's start and return, ns; -1 until it happens *)
  let starts = Array.make count (-1) and ends = Array.make count (-1) in
  let worker ix l () =
    let w = Kspace.new_worker sys.ks in
    let rec_ = Sink.recorder sink ~name:(Printf.sprintf "bench-worker-%d" ix) in
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i >= count then continue := false
      else begin
        let op = sched.(i) in
        let due = t0 + op.Openloop.due_ns in
        if due >= t_end then continue := false
        else begin
          (* the kernel runs only where it delays no op *)
          let t = now () in
          if t >= t_measure && due - t > 1_000_000 then sample_speed l t;
          sleep_until due;
          let start = now () in
          starts.(i) <- start;
          Atomic.incr started;
          let in_window = due >= t_measure in
          if in_window then l.late_max <- max l.late_max (start - due);
          l.issued <- l.issued + 1;
          match
            if op.write then
              spanned rec_ "client.write" (fun () ->
                  Kspace.write sys.ks w ~key:op.key (Value.Str (Printf.sprintf "o%d" i)))
            else spanned rec_ "client.read" (fun () -> ignore (Kspace.read sys.ks w ~key:op.key))
          with
          | () ->
              let t1 = now () in
              ends.(i) <- t1;
              l.completed <- l.completed + 1;
              if in_window then Pstats.push l.lat (t1 - due);
              (* throughput counts what completed inside the window, so
                 a run that falls behind shows it *)
              if in_window && t1 <= t_end then l.measured <- l.measured + 1
          | exception e when is_op_failure e -> l.failed <- l.failed + 1
        end
      end
    done
  in
  let loops = [ loop (); loop () ] in
  let threads = List.mapi (fun ix l -> Thread.create (worker ix l) ()) loops in
  (* the main thread watches backlog and log size, and injects the crash *)
  let backlog_max = ref 0 and klog_max = ref 0 in
  let crash_at = t_measure + int_of_float (seconds /. 3.0 *. 1e9) in
  let restart_at = t_measure + int_of_float (2.0 *. seconds /. 3.0 *. 1e9) in
  let crashed = ref false and restarted = ref false in
  let m = ref None in
  let rec watch () =
    let t = now () in
    if t < t_end then begin
      if t >= t_measure && !m = None then m := Some (mark ());
      if t >= crash_at && not !crashed then begin
        Cluster.crash sys.kcluster 0;
        crashed := true
      end;
      if t >= restart_at && not !restarted then begin
        Cluster.restart sys.kcluster 0;
        restarted := true
      end;
      (* ops due by now that no worker has started yet *)
      let due = ref (Atomic.get started) in
      while !due < count && t0 + sched.(!due).due_ns <= t do
        incr due
      done;
      backlog_max := max !backlog_max (!due - Atomic.get started);
      klog_max := max !klog_max (Klog.approx_bytes (Kspace.klog sys.ks));
      Thread.delay 0.005;
      watch ()
    end
  in
  watch ();
  let win = close_window (Option.value !m ~default:(mark ())) in
  List.iter Thread.join threads;
  if not !restarted then Cluster.restart sys.kcluster 0;
  let tk = now () in
  let r = spanned main "kchecker.stop" (fun () -> Kchecker.stop sys.kchecker) in
  let kstop_s = float_of_int (now () - tk) /. 1e9 in
  (* quiesce: every accepted message delivered, then count resident
     per-key cells *)
  let deadline = now () + 5_000_000_000 in
  let rec drain () =
    let s = Cluster.stats sys.kcluster in
    if s.Cluster.msgs_delivered < s.Cluster.msgs_sent && now () < deadline then begin
      Thread.delay 0.01;
      drain ()
    end
  in
  drain ();
  let _, cells = Kspace.server_cells sys.ks in
  let stats = spanned main "cluster.stats" (fun () -> Cluster.stats sys.kcluster) in
  shutdown sys.kcluster;
  let touched = Hashtbl.create 1024 in
  Array.iteri
    (fun i (o : Openloop.op) ->
      if o.write && ends.(i) >= 0 then Hashtbl.replace touched o.key ())
    sched;
  let obs =
    {
      Gate.empty with
      checker =
        Some
          (match r.Kchecker.first_violation with
          | Some v -> Gate.Violated (Printf.sprintf "key %d: %s" v.Kchecker.v_key v.Kchecker.v_detail)
          | None when r.Kchecker.violations > 0 -> Gate.Violated "unreported violation"
          | None -> Gate.Holds);
      deep_mismatches = r.Kchecker.deep_mismatches;
      space_cells = cells;
      space_formula = ((2 * ks_f) + 1) * Hashtbl.length touched;
    }
  in
  let checked_frac = checked_frac sched ~starts ~ends in
  let writes = ref 0 and completed = ref 0 in
  Array.iteri
    (fun i (o : Openloop.op) ->
      if ends.(i) >= 0 then begin
        incr completed;
        if o.write then incr writes
      end)
    sched;
  phase_of ~setup ~loops ~win ~obs ~checked_frac
    ~write_frac:(float_of_int !writes /. float_of_int (max 1 !completed))
    ~notes:
      [
        ("klog.resident_bytes_max", float_of_int !klog_max);
        ("kchecker.resident_ops_max", float_of_int r.Kchecker.max_resident_ops);
        ("kchecker.settled_writes", float_of_int r.Kchecker.settled_writes);
        ("kchecker.broken_keys", float_of_int r.Kchecker.broken_keys);
        ("kchecker.stop_s", kstop_s);
        ("openload.backlog_max", float_of_int !backlog_max);
      ]
    ~stats:(Some stats)

(* --- search-dpor ------------------------------------------------------- *)

let dpor_params = Params.make_exn ~k:2 ~f:1 ~n:3

(* Algorithm 2, two writers with two writes each and one reader with two
   reads, one operation at a time, no crashes: the shape of
   [regemu explore --exhaustive --algo algorithm2 --writes 2 --ops-each 2].
   The seed only names the written values. *)
let dpor_scenario ~seed =
  Explore.emulation_scenario Regemu_core.Algorithm2.factory dpor_params
    ~mode:Explore.Sequential ~crashes:0
    ~writer_ops:
      (List.init 2 (fun w ->
           List.init 2 (fun j -> Value.Str (Printf.sprintf "s%d.w%d.%d" seed w j))))
    ~readers:1 ~reads_each:2 ()

let dpor_counts (s : Dpor.stats) =
  [
    s.explored;
    s.replayed;
    s.pruned;
    s.sleep_skipped;
    s.terminal_runs;
    s.stuck_runs;
    s.distinct_states;
    s.max_depth;
  ]

(* WS-Regularity verdicts that are not vacuous, over the distinct
   terminal histories of a [Dpor.run] call, read from the verdict letters
   each history's fingerprint ends with: [|<ws-safe><ws-regular>], then
   [|stuck] when it stalled *)
let dpor_checked_frac (s : Dpor.stats) =
  let regular fp =
    match List.rev (String.split_on_char '|' fp) with
    | "stuck" :: v :: _ | v :: _ -> if String.length v = 2 then Some v.[1] else None
    | [] -> None
  in
  let verdicts = List.filter_map regular s.state_fingerprints in
  let checked = List.length (List.filter (( <> ) 'V') verdicts) in
  float_of_int checked /. float_of_int (max 1 (List.length verdicts))

(* One op is one [Dpor.run] call at the fixed budget, from a fresh
   scenario; every call of a run must report the same counts. *)
let run_dpor ~size ~seconds ~setups:n ~seed =
  (* building the scenario and its first system takes microseconds, so
     setup_s is the median of many builds *)
  let setup, (scenario, cells) =
    setups (max 1 n * 40)
      (fun () ->
        let sc = dpor_scenario ~seed in
        let session = Explore.Session.create sc in
        (sc, List.length (Regemu_sim.Sim.objects (Explore.Session.sim session))))
      ignore
  in
  let first = ref None and counts = ref [] and violations = ref 0 in
  let call _ =
    let st = Dpor.run scenario ~max_explored:size.dpor_budget in
    violations :=
      !violations + st.Dpor.ws_safe_violations + st.Dpor.ws_regular_violations
      + st.Dpor.invariant_violations;
    let c = dpor_counts st in
    if not (List.mem c !counts) then counts := c :: !counts;
    if !first = None then first := Some st
  in
  let loops, win =
    closed_load ~size ~seconds Sink.none [ ("bench-search", "dpor.run", call) ]
  in
  let st = Option.get !first in
  let per_explored x =
    float_of_int x /. float_of_int (max 1 st.Dpor.explored)
  in
  let measured = List.fold_left (fun a (l : loop) -> a + l.measured) 0 loops in
  phase_of ~setup ~loops ~win
    ~obs:
      {
        Gate.empty with
        space_cells = cells;
        space_formula = Formulas.register_upper_bound dpor_params;
        dpor_violations = !violations;
        dpor_counts = List.rev !counts;
      }
    ~checked_frac:(dpor_checked_frac st)
    ~write_frac:0.0
    ~notes:
      [
        ("dpor.explored", float_of_int st.Dpor.explored);
        ("dpor.replayed_per_explored", per_explored st.Dpor.replayed);
        ("dpor.pruned", float_of_int st.Dpor.pruned);
        ("dpor.sleep_skipped", float_of_int st.Dpor.sleep_skipped);
        ("dpor.terminal_runs", float_of_int st.Dpor.terminal_runs);
        ("dpor.max_depth", float_of_int st.Dpor.max_depth);
        (* every call explores the same count, which the gate checks *)
        ( "dpor_transitions_per_s",
          float_of_int (measured * st.Dpor.explored) /. win.w_seconds );
      ]
    ~stats:None

(* --- assembling a run --------------------------------------------------- *)

type result = {
  failures : string list;  (** the correctness gate's findings *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  steal : float;  (** the machine's CPU steal share during the run *)
  lines : string list;  (** the human-readable report *)
}

let us_of_ns x = float_of_int x /. 1e3

let per_op (p : phase) x = x /. float_of_int (max 1 p.measured)

(* CPU us per op of the process and its socket servers over the window,
   less what the load threads spent timing the kernel *)
let cpu_us_per_op (p : phase) =
  per_op p ((p.win.cpu_user +. p.win.cpu_sys -. p.kernel_s) *. 1e6)

(* The bounded end-to-end metrics are the CPU time of a set-up, CPU time
   per op, both at the reference speed, and space.  Measured on a
   two-vCPU virtual machine whose CPU steal ranged from 0% to 32% between
   runs, throughput and latency moved with the steal by up to 2x while
   these held; CPU time leaves stolen time out. *)
let end_to_end (p : phase) =
  [
    ( "setup_s",
      Pstats.median_float
        (List.map
           (fun (dt, kn) -> dt *. float_of_int kernel_nominal_ns /. float_of_int (max 1 kn))
           p.setup) );
    ("cpu_us_per_op", cpu_us_per_op p *. p.speed);
    ("space_cells", float_of_int p.obs.Gate.space_cells);
  ]

(* the wall-clock figures a user sees, reported unbounded beside the
   run's steal share *)
let wall_clock (p : phase) =
  [
    ("ops_per_s", float_of_int p.measured /. p.win.w_seconds);
    ("op_p50_us", us_of_ns (Pstats.pct p.lat 50.0));
    ("op_p99_us", us_of_ns (Pstats.pct p.lat 99.0));
    ("peak_rss_mb", p.win.rss_mb);
  ]

(* the end-to-end companions and per-process layers of an untraced phase *)
let companions (p : phase) =
  let cpu = p.win.cpu_user +. p.win.cpu_sys in
  wall_clock p
  @ [
    ("failed_frac", float_of_int p.failed /. float_of_int (max 1 p.issued));
    ("lateness_max_s", float_of_int p.late_max_ns /. 1e9);
    ("checked_frac", p.checked_frac);
    ("proc.sys_cpu_share", if cpu > 0.0 then p.win.cpu_sys /. cpu else 0.0);
    ("gc.minor_words_per_op", per_op p p.win.minor_words);
    ("gc.major_collections", float_of_int p.win.major);
    ("proc.core_speed", p.speed);
  ]
  @ (match p.stats with
    | Some s ->
        let ops = float_of_int (max 1 p.completed) in
        [
          ("cluster.msgs_per_op", float_of_int s.Cluster.msgs_sent /. ops);
          ("cluster.retries_per_op", float_of_int s.Cluster.retries /. ops);
        ]
    | None -> [])
  @ p.notes

let phase_lines name (p : phase) =
  [
    Printf.sprintf
      "%s: %d ops issued, %d completed, %d failed; %d latency samples, %d above p99"
      name p.issued p.completed p.failed (Array.length p.lat) (Pstats.above p.lat 99.0);
    Printf.sprintf "%s: op latency us p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f max %.1f" name
      (us_of_ns (Pstats.pct p.lat 50.0)) (us_of_ns (Pstats.pct p.lat 90.0))
      (us_of_ns (Pstats.pct p.lat 99.0)) (us_of_ns (Pstats.pct p.lat 99.9))
      (us_of_ns (Pstats.pct p.lat 100.0));
    Printf.sprintf "%s: space_cells %d, paper's formula %d" name p.obs.Gate.space_cells
      p.obs.Gate.space_formula;
    (let a = Pstats.sorted_list (List.map (fun (dt, _) -> int_of_float (dt *. 1e9)) p.setup) in
     let k = Pstats.sorted_list (List.map snd p.setup) in
     Printf.sprintf
       "%s: %d set-ups, CPU us unscaled min %.1f p25 %.1f p50 %.1f p75 %.1f max %.1f; kernel \
        p50 %.1f us"
       name (Array.length a) (us_of_ns (Pstats.pct a 0.0)) (us_of_ns (Pstats.pct a 25.0))
       (us_of_ns (Pstats.pct a 50.0)) (us_of_ns (Pstats.pct a 75.0))
       (us_of_ns (Pstats.pct a 100.0)) (us_of_ns (Pstats.pct k 50.0)));
    Printf.sprintf "%s: core speed %.3f over %.2f s of kernel runs; CPU us per op unscaled %.2f"
      name p.speed p.kernel_s (cpu_us_per_op p);
  ]

(* layer metrics read back from the traced phase's spans.  A recorder's
   ring keeps its newest events, so on a long window the medians come
   from the window's end; trace.dropped is the share of events lost. *)
let traced_layers (tr : tracing) ~(untraced : phase) ~(traced : phase) =
  let bench =
    Spans.collect tr.trace ~keep:(Spans.starts_with ~prefix:"bench-")
  in
  let ops =
    Spans.named [ "write"; "read" ]
      (Spans.collect tr.trace ~keep:(Spans.starts_with ~prefix:"client-"))
  in
  let base = Pstats.pct untraced.lat 50.0 in
  [
    ("client.write_p50_us", Spans.p50_us (fun s -> s.Spans.dur_ns) (Spans.named [ "client.write" ] bench));
    ("client.read_p50_us", Spans.p50_us (fun s -> s.Spans.dur_ns) (Spans.named [ "client.read" ] bench));
    ("cluster.await_p50_us", Spans.p50_us (fun s -> s.Spans.child_ns) ops);
    ("cluster.op_self_p50_us", Spans.p50_us Spans.self_ns ops);
    ( "trace.overhead_p50",
      if base > 0 then float_of_int (Pstats.pct traced.lat 50.0) /. float_of_int base
      else 0.0 );
    ( "trace.dropped",
      float_of_int (Trace.dropped tr.trace) /. float_of_int (max 1 (Trace.recorded tr.trace)) );
  ]

(* the medians of the benchmark's spans around the cluster's set-up and
   tear-down calls, for the report *)
let call_spans (tr : tracing) =
  let spans = Spans.collect tr.trace ~keep:(( = ) "bench-main") in
  let names = List.sort_uniq compare (List.map (fun s -> s.Spans.name) spans) in
  "traced calls, p50 us: "
  ^ String.concat ", "
      (List.map
         (fun n ->
           Printf.sprintf "%s %.1f" n
             (Spans.p50_us (fun s -> s.Spans.dur_ns) (Spans.named [ n ] spans)))
         names)

(* The layers each workload's messages pass through, replayed and
   timed; the others read 0.  search-dpor runs no live cluster. *)
let path = function
  | Register_sw -> Replay.[ Proto_step; Ringbuf; Histlog ]
  | Register_mw -> Replay.[ Proto_step; Codec; Histlog ]
  | Keyspace_open -> Replay.[ Proto_step; Mpsc; Placement ]
  | Search_dpor -> []

(* the per-layer metrics of a replayed layer *)
let layer_metrics (r : Replay.layers) = function
  | Replay.Proto_step -> [ ("proto.step_ns", r.step_ns) ]
  | Codec ->
      [
        ("codec.encode_ns", r.encode_ns);
        ("codec.decode_ns", r.decode_ns);
        ("codec.bytes_per_op", r.codec_bytes_per_op);
      ]
  | Ringbuf -> [ ("ringbuf.push_take_ns", r.ringbuf_ns) ]
  | Mpsc -> [ ("mpsc.push_pop_ns", r.mpsc_ns); ("mpsc.handoff_ns", r.handoff_ns) ]
  | Histlog ->
      [ ("histlog.invoke_return_ns", r.histlog_ns); ("histlog.bytes_per_op", r.histlog_bytes_per_op) ]
  | Placement -> [ ("placement.replicas_ns", r.placement_ns) ]

(* The layer ledger: the replayed per-op costs of the layers on this
   workload's path plus the quorum wait, against the untraced median
   op.  Reported, not gated. *)
let ledger wl (r : Replay.layers) ~await_us ~op_p50_us =
  let parts = List.map (Replay.us_per_op r) (path wl) @ [ ("cluster.await", await_us) ] in
  let sum = List.fold_left (fun a (_, us) -> a +. us) 0.0 parts in
  Printf.sprintf
    "ledger (us per op): %s = %.3f; untraced op_p50 %.3f; unexplained remainder %.3f%s"
    (String.concat " + " (List.map (fun (n, us) -> Printf.sprintf "%s %.3f" n us) parts))
    sum op_p50_us (op_p50_us -. sum)
    (if wl = Keyspace_open then " (Kspace records no await span)" else "")

(* the message mix of the untraced phase: its share of writes, or
   keyspace-open's own schedule *)
let mix_of wl ~seed ~size (p : phase) =
  (* op i writes when the running count of writes steps up there *)
  let kinds n write =
    Array.init n (fun i ->
        let due j = int_of_float (float_of_int j *. p.write_frac) in
        if due (i + 1) > due i then write i else None)
  in
  match wl with
  | Register_sw -> Some (Replay.alg2 alg2_params (kinds 512 (fun _ -> Some 0)))
  | Register_mw -> Some (Replay.cds ~f:1 (kinds 512 (fun i -> Some (i mod 2))))
  | Keyspace_open ->
      let sched = schedule ~seed ~size in
      Some (Replay.keyed ~n:ks_n ~f:ks_f (Array.sub sched 0 (min 2048 (Array.length sched))))
  | Search_dpor -> None

(* The replayed mix against the live run's count: the socket fabric
   counts only the requests the client process sends, the others every
   request and reply. *)
let mix_line wl (r : Replay.layers) (p : phase) (s : Cluster.stats) =
  let live = float_of_int s.Cluster.msgs_sent /. float_of_int (max 1 p.completed) in
  let replayed = if wl = Register_mw then r.requests_per_op else r.msgs_per_op in
  Printf.sprintf
    "replayed mix: %.2f messages and %.2f requests per op, write share %.3f; live run %.2f \
     %s per op, replayed/live %.3f"
    r.msgs_per_op r.requests_per_op p.write_frac live
    (if wl = Register_mw then "requests" else "messages")
    (replayed /. Float.max 1e-9 live)

let gate_lines failures =
  match failures with
  | [] -> [ "correctness gate: pass" ]
  | fs -> List.map (fun f -> "correctness gate: FAIL: " ^ f) fs

let with_defaults names values =
  List.map
    (fun (n, _) -> (n, Option.value (List.assoc_opt n values) ~default:0.0))
    names

let measure wl ~seed ~size ~seconds ~setups ?tracing () =
  match wl with
  | Register_sw -> run_closed ~size ~seconds ~setups ?tracing (register_sw ~seed)
  | Register_mw -> run_closed ~size ~seconds ~setups ?tracing (register_mw ~seed)
  | Keyspace_open -> run_keyspace ~size ~seconds ~setups ~seed ?tracing (schedule ~seed ~size)
  | Search_dpor -> run_dpor ~size ~seconds ~setups ~seed

let schedule_failures wl ~seed ~size =
  match wl with
  | Keyspace_open ->
      let sched = schedule ~seed ~size in
      let bad =
        Openloop.check_keys ~seed ~keys:size.keys ~zipf:ks_zipf
          ~write_fraction:ks_write_fraction ~rate:size.rate sched ~samples:8
      in
      if bad = [] then []
      else [ Printf.sprintf "schedule diverges from Openload's stream at op %d" (List.hd bad) ]
  | _ -> []

let run wl ~trace ~seed ~size =
  let ticks = Manifest.cpu_ticks () in
  let pre = schedule_failures wl ~seed ~size in
  if not trace then begin
    let p = measure wl ~seed ~size ~seconds:size.seconds ~setups:size.setups () in
    let failures = pre @ Gate.check p.obs in
    let steal = Manifest.steal_share ticks in
    {
      failures;
      attempted = p.issued;
      failed = p.failed;
      metrics = end_to_end p;
      steal;
      lines =
        phase_lines "untraced" p
        @ List.map (fun (n, v) -> Printf.sprintf "%s = %.6g" n v)
            (companions p @ [ ("proc.steal_share", steal) ])
        @ gate_lines failures;
    }
  end
  else begin
    let half = size.seconds /. 2.0 in
    let a = measure wl ~seed ~size ~seconds:half ~setups:1 () in
    (* search-dpor has no live cluster to trace *)
    let traced =
      match wl with
      | Search_dpor -> None
      | _ ->
          let tr = tracing () in
          Some (tr, measure wl ~seed ~size ~seconds:half ~setups:1 ~tracing:tr ())
    in
    let mix = mix_of wl ~seed ~size a in
    let replay =
      Option.map (Replay.measure ~min_ns:size.replay_ns ~path:(path wl)) mix
    in
    let phases = a :: Option.to_list (Option.map snd traced) in
    let failures = pre @ List.concat_map (fun (p : phase) -> Gate.check p.obs) phases in
    let steal = Manifest.steal_share ticks in
    let values =
      companions a
      @ (match traced with Some (tr, b) -> traced_layers tr ~untraced:a ~traced:b | None -> [])
      @ (match replay with
        | Some r -> List.concat_map (layer_metrics r) (path wl)
        | None -> [])
      @ [ ("proc.steal_share", steal) ]
    in
    let await_us = Option.value (List.assoc_opt "cluster.await_p50_us" values) ~default:0.0 in
    {
      failures;
      attempted = List.fold_left (fun acc (p : phase) -> acc + p.issued) 0 phases;
      failed = List.fold_left (fun acc (p : phase) -> acc + p.failed) 0 phases;
      metrics = with_defaults layers values;
      steal;
      lines =
        phase_lines "untraced" a
        @ (match traced with Some (_, b) -> phase_lines "traced" b | None -> [])
        @ (match (replay, a.stats) with
          | Some r, Some s ->
              [
                mix_line wl r a s;
                ledger wl r ~await_us ~op_p50_us:(us_of_ns (Pstats.pct a.lat 50.0));
              ]
          | _ -> [ "replayed mix and ledger: none, search-dpor runs no live cluster" ])
        @ (match traced with Some (tr, _) -> [ call_spans tr ] | None -> [])
        @ gate_lines failures;
    }
  end
