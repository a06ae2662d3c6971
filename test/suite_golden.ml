(* Behaviour oracles for the message-passing algorithms: fixed-seed
   fingerprints of every registry algorithm under the deterministic
   scheduler (Dst.run_digest) and of every wire protocol on the
   simulated network (history MD5 plus delivered-message count).

   The values were recorded before the algorithms were rewritten as one
   functor each over Net and Cluster; any change to the order of
   messages, request ids, or scheduling points shows up here first.
   Configs are built through the JSON config reader so this file names
   algorithms only by their registry strings. *)

open Regemu_history
open Regemu_netsim
open Regemu_dst
module Json = Regemu_obs.Json

let test name f = Alcotest.test_case name `Quick f

(* --- DST digests ---------------------------------------------------------- *)

let dst_config ~algo ~writers ~readers ~n ~quiet ~seed =
  let set k v fields =
    List.map (fun (k', v') -> if k = k' then (k, v) else (k', v')) fields
  in
  let base = Dst.default_config ~seed in
  let fields =
    match Dst.config_json base with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "config_json is not an object"
  in
  let fields =
    set "algo" (Json.Str algo) fields
    |> set "writers" (Json.Int writers)
    |> set "readers" (Json.Int readers)
    |> set "n" (Json.Int n)
  in
  let fields =
    if quiet then
      set "drop_prob" (Json.Float 0.0) fields
      |> set "dup_prob" (Json.Float 0.0)
    else fields
  in
  match Dst.config_of_json (Json.Obj fields) with
  | Ok base ->
      Dst_fuzz.config_for
        (if quiet then Dst_fuzz.Quiet else Dst_fuzz.Chaos)
        ~base ~seed
  | Error m -> Alcotest.failf "config_of_json: %s" m

(* the schedule digest counts scheduler steps, not messages, so two
   algorithms with the same quorum shape can share it; the message
   totals tell them apart *)
let dst_fingerprint (o : Dst.outcome) =
  match o.stats with
  | None -> Dst.run_digest o
  | Some s ->
      Fmt.str "%s/%d/%d" (Dst.run_digest o) s.cluster_stats.msgs_sent
        s.cluster_stats.msgs_delivered

(* (algo, profile, expected "run_digest/sent/delivered") *)
let dst_goldens =
  [
    ("abd", `Quiet, "3160a5c22cf162db-98f14e0889b5dd71/192/192");
    ("abd", `Chaos, "e86fc82ebb382c8b-013bb12ffe7ac6ae/258/258");
    ("abd-wb", `Quiet, "92128e3d44c574ae-e042ff6f68a78a5b/288/287");
    ("abd-wb", `Chaos, "10854f754e3795bd-14338f2996ec2371/309/309");
    ("algorithm2", `Quiet, "3160a5c22cf162db-98f14e0889b5dd71/192/192");
    ("algorithm2", `Chaos, "877a95714bceed69-2d6f2b3bee957ef3/404/404");
    ("cds", `Quiet, "3160a5c22cf162db-98f14e0889b5dd71/192/192");
    ("cds", `Chaos, "e86fc82ebb382c8b-013bb12ffe7ac6ae/258/258");
  ]

let dst_tests =
  List.map
    (fun (algo, profile, expected) ->
      let quiet = profile = `Quiet in
      test
        (Fmt.str "dst digest: %s %s" algo (if quiet then "quiet" else "chaos"))
        (fun () ->
          let cfg =
            if quiet then
              dst_config ~algo ~writers:1 ~readers:2 ~n:4 ~quiet ~seed:101
            else dst_config ~algo ~writers:2 ~readers:1 ~n:3 ~quiet ~seed:202
          in
          Alcotest.(check string)
            "fingerprint" expected
            (dst_fingerprint (Dst.run cfg))))
    dst_goldens

(* --- Net fingerprints ----------------------------------------------------- *)

let naive_alg2 =
  {
    Net_scenario.name = "alg2-net-naive";
    make =
      (fun net p ~writers ->
        let t = Alg2_net.create net p ~naive:true ~writers () in
        (Alg2_net.write t, Alg2_net.read t));
  }

let fingerprint (r : Net_scenario.result) =
  let ops = List.map (Fmt.str "%a" History.op_pp) r.history in
  Fmt.str "%s/%d"
    (Digest.to_hex (Digest.string (String.concat "\n" ops)))
    (Net.delivered r.net)

let p_net = Regemu_bounds.Params.make_exn ~k:2 ~f:1 ~n:4

(* (protocol, scenario, expected "md5/delivered") *)
let net_goldens =
  [
    ( Net_scenario.abd ~write_back:false,
      `Seq,
      "093cc4b2f98d4f227434b7f8c163b414/60" );
    ( Net_scenario.abd ~write_back:false,
      `Conc,
      "104d99bdd3e1ef9e9301d49fce9f63fc/82" );
    ( Net_scenario.abd ~write_back:true,
      `Seq,
      "4f8edca5bc1ebd243bb3a0c4c6ca91ad/76" );
    ( Net_scenario.abd ~write_back:true,
      `Conc,
      "93dc8e1c2ff27e4d266796d9d7e330fa/84" );
    ( Net_scenario.alg2,
      `Seq,
      "98a99041ebc6feaacd521c5ff375cc65/77" );
    ( Net_scenario.alg2,
      `Conc,
      "85dc952b697534b0ca3961d03e3d8789/82" );
    ( naive_alg2,
      `Seq,
      "093cc4b2f98d4f227434b7f8c163b414/60" );
    ( naive_alg2,
      `Conc,
      "104d99bdd3e1ef9e9301d49fce9f63fc/82" );
  ]

let net_tests =
  List.map
    (fun (protocol, scenario, expected) ->
      let label =
        match scenario with `Seq -> "sequential" | `Conc -> "concurrent"
      in
      test
        (Fmt.str "net fingerprint: %s %s" protocol.Net_scenario.name label)
        (fun () ->
          let r =
            match scenario with
            | `Seq ->
                Net_scenario.write_sequential ~protocol ~p:p_net ~rounds:2
                  ~crashes:1 ~duplication:true ~seed:31 ()
            | `Conc ->
                Net_scenario.concurrent_reads ~protocol ~p:p_net ~rounds:2
                  ~readers:2 ~crashes:1 ~duplication:true ~seed:47 ()
          in
          match r with
          | Error e -> Alcotest.failf "%a" Net_scenario.error_pp e
          | Ok r ->
              Alcotest.(check string)
                "md5/delivered" expected (fingerprint r)))
    net_goldens

let suites = [ ("golden:dst", dst_tests); ("golden:net", net_tests) ]
