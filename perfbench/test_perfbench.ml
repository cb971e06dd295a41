(* Tests for the benchmark's own helpers: percentiles, the open-loop
   scheduler, the max_rps search, and the JSON it emits. *)

open Perfbench
module J = Server.Json

(* ------------------------------------------------------------------ *)
(* Percentiles *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_rule () =
  let check = Alcotest.(check (option (float 0.0))) in
  check "no samples" None (Pstats.percentile 50.0 [||]);
  (* nearest rank: p99 of 999 samples is the 990th, 9 beyond *)
  check "p99 of 999 has 9 beyond" None (Pstats.percentile 99.0 (ramp 999));
  Alcotest.(check int) "beyond p99 of 999" 9 (Pstats.beyond 99.0 999);
  check "p99 of 1000 has 10 beyond" (Some 990.0) (Pstats.percentile 99.0 (ramp 1000));
  check "p99 of 1100" (Some 1089.0) (Pstats.percentile 99.0 (ramp 1100));
  check "p50 of 21" (Some 11.0) (Pstats.percentile 50.0 (ramp 21));
  check "p50 of 20 has 10 beyond" (Some 10.0) (Pstats.percentile 50.0 (ramp 20));
  check "p50 of 19" None (Pstats.percentile 50.0 (ramp 19));
  check "unsorted input" (Some 1089.0)
    (Pstats.percentile 99.0 (Array.of_list (List.rev (Array.to_list (ramp 1100)))));
  Alcotest.(check (float 0.0)) "median even" 2.5 (Pstats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "median odd" 2.0 (Pstats.median [| 3.0; 1.0; 2.0 |])

(* ------------------------------------------------------------------ *)
(* A simulated FIFO server on a simulated clock *)

type sim = { clock : float ref; conn : Openloop.conn }

(** One server taking [service] seconds per request, unavailable during
    [stall] = (from, until). [send_cost i] is how long the generator
    itself spends writing request [i] (its own lateness). *)
let sim ?(stall = (infinity, infinity)) ?(send_cost = fun _ -> 0.0) ~service () =
  let clock = ref 0.0 and free_at = ref 0.0 in
  let q = Queue.create () in
  let send i =
    clock := !clock +. send_cost i;
    let start = Float.max !clock !free_at in
    let a, b = stall in
    let start = if start >= a && start < b then b else start in
    free_at := start +. service;
    Queue.push (!free_at, i) q
  in
  let poll timeout =
    let wake = !clock +. timeout in
    match Queue.peek_opt q with
    | Some (t, _) when t <= wake ->
        clock := Float.max !clock t;
        let rec take acc =
          match Queue.peek_opt q with
          | Some (t, i) when t <= !clock ->
              ignore (Queue.pop q);
              take ((i, true) :: acc)
          | _ -> List.rev acc
        in
        take []
    | _ ->
        clock := wake;
        []
  in
  { clock; conn = { Openloop.send; poll } }

let close = Alcotest.(float 1e-6)

let test_latency_from_due_time () =
  (* 100 req/s, 1 ms service; the server stalls from 100 ms to 300 ms. *)
  let s = sim ~stall:(0.1, 0.3) ~service:0.001 () in
  let r = Openloop.run ~now:(fun () -> !(s.clock)) ~rate:100.0 ~n:50 s.conn in
  Alcotest.(check int) "all answered" 50 r.Openloop.completed;
  Alcotest.(check close) "before the stall: service time" 1.0 r.Openloop.latency_ms.(5);
  (* Due at 100 ms, served from 300 ms. *)
  Alcotest.(check close) "due at the stall's start" 201.0 r.Openloop.latency_ms.(10);
  (* Due at 250 ms, queued behind 15 requests that fell due in the stall. *)
  Alcotest.(check close) "due inside the stall" 66.0 r.Openloop.latency_ms.(25);
  Alcotest.(check close) "generator on time" 0.0 r.Openloop.lag_ms.(25);
  Alcotest.(check bool) "stall misses a 10 ms p99" false
    (Openloop.meets ~p99_limit_ms:10.0 ~n:50 r)

let test_generator_lag_is_charged () =
  (* The generator itself stalls 50 ms while writing request 10: the
     requests that fell due meanwhile are written late, and their
     latency still counts from the due time. *)
  let s = sim ~service:0.001 ~send_cost:(fun i -> if i = 10 then 0.05 else 0.0) () in
  let r = Openloop.run ~now:(fun () -> !(s.clock)) ~rate:100.0 ~n:30 s.conn in
  Alcotest.(check close) "request 11 written late" 40.0 r.Openloop.lag_ms.(11);
  Alcotest.(check bool) "latency includes the lag" true
    (r.Openloop.latency_ms.(11) >= r.Openloop.lag_ms.(11) +. 1.0 -. 1e-6);
  Alcotest.(check close) "request 20 on time again" 0.0 r.Openloop.lag_ms.(20)

let test_max_rps_search () =
  (* Capacity 700 req/s: below it latency stays at the service time,
     above it the backlog grows until the p99 limit is missed. *)
  let trials = ref 0 in
  let trial rate =
    incr trials;
    let n = 3000 in
    let s = sim ~service:(1.0 /. 700.0) () in
    Openloop.meets ~p99_limit_ms:10.0 ~n
      (Openloop.run ~now:(fun () -> !(s.clock)) ~rate ~n ~limit_ms:10.0 s.conn)
  in
  let best, log = Openloop.max_rate ~lo:100.0 ~hi:1000.0 ~ratio:0.95 trial in
  Alcotest.(check bool) "highest rung below capacity" true (best < 700.0 && best > 700.0 *. 0.95);
  Alcotest.(check int) "one log entry per trial" !trials (List.length log);
  Alcotest.(check bool) "stops at the first passing rung" true
    (List.for_all (fun (r, ok) -> ok = (r = best)) log);
  let none, _ = Openloop.max_rate ~lo:100.0 ~hi:1000.0 ~ratio:0.5 (fun _ -> false) in
  Alcotest.(check (float 0.0)) "nothing passes" 0.0 none

let test_probe_stops_early () =
  (* Far above capacity, a trial stops sending once the p99 is lost. *)
  let s = sim ~service:0.01 () in
  let r = Openloop.run ~now:(fun () -> !(s.clock)) ~rate:1000.0 ~n:2000 ~limit_ms:10.0 s.conn in
  Alcotest.(check bool) "stopped early" true (r.Openloop.sent < 400);
  Alcotest.(check bool) "misses" false (Openloop.meets ~p99_limit_ms:10.0 ~n:2000 r)

(* ------------------------------------------------------------------ *)
(* Emitted JSON *)

let test_result_line_parses () =
  let metrics =
    [
      { Report.name = "p50_ms"; value = 0.1 +. 0.2; unit_ = "ms" };
      { Report.name = "procs_per_s"; value = 14051.538032596527; unit_ = "1/s" };
      { Report.name = "setup_s"; value = 1e-7; unit_ = "s" };
    ]
  in
  let line = Report.result_line ~correct:true ~attempted:1000 ~failed:0 metrics in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match J.parse line with
  | Error m -> Alcotest.fail m
  | Ok v ->
      Alcotest.(check (option bool)) "correct" (Some true) (J.bool_member "correct" v);
      Alcotest.(check (option int)) "attempted" (Some 1000) (J.int_member "attempted" v);
      Alcotest.(check (option int)) "failed" (Some 0) (J.int_member "failed" v);
      let ms = Option.get (J.member "metrics" v) in
      List.iter
        (fun m ->
          let o = Option.get (J.member m.Report.name ms) in
          Alcotest.(check (option (float 0.0))) ("exact " ^ m.Report.name) (Some m.Report.value)
            (J.num_member "value" o);
          Alcotest.(check (option string)) "unit" (Some m.Report.unit_) (J.str_member "unit" o))
        metrics

let test_trace_parses () =
  let t = Spans.create () in
  Spans.record t ~req:7 "request" (fun root ->
      Spans.record t ~parent:root ~req:7 "heaplang.parse" (fun _ -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
      Spans.add t ~parent:root ~req:7 "vc_cache.hit_mem" ~start:1.0 ~stop:1.0);
  match J.parse (J.to_string (Spans.to_json t)) with
  | Error m -> Alcotest.fail m
  | Ok (J.List spans) ->
      Alcotest.(check int) "three spans" 3 (List.length spans);
      let by name = List.find (fun s -> J.str_member "name" s = Some name) spans in
      let root = by "request" and parse = by "heaplang.parse" in
      Alcotest.(check (option int)) "root has no parent" (Some (-1)) (J.int_member "parent" root);
      Alcotest.(check (option int)) "child points at root" (J.int_member "id" root) (J.int_member "parent" parse);
      Alcotest.(check (option int)) "request id" (Some 7) (J.int_member "req" parse);
      let start = Option.get (J.num_member "start" parse) and stop = Option.get (J.num_member "end" parse) in
      Alcotest.(check bool) "end after start" true (stop >= start);
      Alcotest.(check string) "root recorded last" "request" (Spans.last t).Spans.name
  | Ok _ -> Alcotest.fail "trace is not a list"

(* ------------------------------------------------------------------ *)
(* Generated sources *)

let test_sources () =
  let a = Array.init 200 (Hlgen.make ~seed:3) in
  Alcotest.(check string) "an index repeats" a.(100).Hlgen.source (Hlgen.make ~seed:3 100).Hlgen.source;
  Alcotest.(check bool) "the seed matters" false
    (String.equal a.(100).Hlgen.source (Hlgen.make ~seed:4 100).Hlgen.source);
  let distinct = List.sort_uniq compare (Array.to_list (Array.map (fun s -> s.Hlgen.source) a)) in
  Alcotest.(check int) "all distinct" 200 (List.length distinct);
  let fails = Array.fold_left (fun n s -> if s.Hlgen.expect_fail then n + 1 else n) 0 a in
  Alcotest.(check bool) "about one in twelve wrong" true (fails > 5 && fails < 35)

(* ------------------------------------------------------------------ *)
(* Host speed *)

let test_calibration () =
  let f = Alcotest.(check (float 1e-12)) in
  f "reference host" 1.0 (Calib.factor ~before:Calib.reference_ms ~after:Calib.reference_ms);
  f "mean of the samples around the work" (3.0 /. Calib.reference_ms) (Calib.factor ~before:2.0 ~after:4.0);
  let t = Calib.sample () in
  Alcotest.(check bool) "a kernel round takes time" true (Float.is_finite t && t > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentile needs 10 beyond" `Quick test_percentile_rule ]);
      ( "openloop",
        [
          Alcotest.test_case "latency from due time" `Quick test_latency_from_due_time;
          Alcotest.test_case "generator lag is charged" `Quick test_generator_lag_is_charged;
          Alcotest.test_case "max_rps search" `Quick test_max_rps_search;
          Alcotest.test_case "trial stops early" `Quick test_probe_stops_early;
        ] );
      ( "json",
        [
          Alcotest.test_case "result line" `Quick test_result_line_parses;
          Alcotest.test_case "trace" `Quick test_trace_parses;
        ] );
      ("sources", [ Alcotest.test_case "distinct and seeded" `Quick test_sources ]);
      ("calib", [ Alcotest.test_case "host factor" `Quick test_calibration ]);
    ]
