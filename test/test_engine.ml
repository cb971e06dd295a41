(** Engine tests: the suite registry elaborates once under a
    first-use race, parallel verification is observationally identical
    to sequential verification (for positive AND negative suite
    entries), and the verdict cache survives concurrent hammering from
    several domains. *)

module V = Verifier.Exec
module Pr = Suite.Programs
module E = Engine

let outcome : V.outcome Alcotest.testable =
  Alcotest.testable
    (fun ppf o -> V.pp_outcome ppf o)
    ( = )

let proc_results = Alcotest.(list (pair string outcome))

let engine_results config =
  let report =
    E.verify_programs ~config
      (List.map (fun (e : Pr.entry) -> (e.name, e.prog)) (Pr.all ()))
  in
  List.map (fun (g : E.group_result) -> (g.E.group, g.E.outcomes)) report.E.groups

(* 0. First use of the suite registry from 4 domains at once: every
   domain resolves the same entries, physically, so the sources were
   elaborated exactly once. This runs first, while the registry of the
   test process is still unbuilt. *)
let test_registry_first_use () =
  let names = [ "swap"; "count"; "ghost_counter"; "treiber"; "lock_noinv" ] in
  let ready = Atomic.make 0 in
  let resolve () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    List.map Pr.find names
  in
  let spawned = List.init 3 (fun _ -> Domain.spawn resolve) in
  let mine = resolve () in
  List.iter
    (fun theirs ->
      List.iter2
        (fun name (a, b) ->
          match (a, b) with
          | Some (a : Pr.entry), Some b ->
              Alcotest.(check bool) (name ^ ": one shared entry") true (a == b)
          | _ -> Alcotest.failf "%s: unresolved" name)
        names (List.combine mine theirs))
    (List.map Domain.join spawned)

(* 1. Per-entry: 4 worker domains produce exactly the sequential
   verifier's outcomes, including failure messages of the negative
   entries. *)
let test_parallel_matches_sequential () =
  let par =
    engine_results { E.default_config with E.domains = 4 }
  in
  List.iter
    (fun (e : Pr.entry) ->
      let seq = V.verify e.prog in
      Alcotest.check proc_results e.name seq (List.assoc e.name par))
    (Pr.all ())

(* 2. The engine report accounts every job and obligations route
   through the incremental sessions. *)
let test_engine_stats () =
  let progs =
    List.concat_map
      (fun r ->
        List.map
          (fun (e : Pr.entry) -> (Printf.sprintf "%s#%d" e.name r, e.prog))
          (Pr.positive ()))
      [ 0; 1 ]
  in
  let njobs =
    List.fold_left (fun n (_, p) -> n + List.length p.V.procs) 0 progs
  in
  let report =
    E.verify_programs
      ~config:{ E.default_config with E.domains = 2 }
      progs
  in
  let s = report.E.stats in
  Alcotest.(check int) "job count" njobs s.E.jobs;
  Alcotest.(check int)
    "jobs partitioned over domains" njobs
    (Array.fold_left ( + ) 0 s.E.pool.E.Pool.jobs_per_domain);
  Alcotest.(check bool)
    "obligations went through sessions" true
    (s.E.smt.Smt.Stats.session_checks > 0);
  Alcotest.(check bool) "all verified" true (List.for_all E.group_ok report.E.groups)

(* 3. qcheck: hammer one shared verdict cache from 4 domains. Every
   domain probes, stores and re-probes every key, each starting at a
   different offset, so lookups and stores of the same key race across
   domains. A probe may miss before any store of its key, but whatever
   it returns must be that key's verdicts, and the probe right after a
   domain's own store must hit. *)

let gen_verdicts : E.Vc_cache.verdicts QCheck.Gen.t =
  let open QCheck.Gen in
  let outcome =
    oneof
      [
        return V.Verified;
        map (fun n -> V.Failed (Printf.sprintf "post %d" n)) (int_range 0 9);
      ]
  in
  list_size (int_range 1 3)
    (map2 (fun i o -> (Printf.sprintf "p%d" i, o)) (int_range 0 9) outcome)

let print_verdicts vs =
  String.concat "; "
    (List.map (fun (p, o) -> Fmt.str "%s=%a" p V.pp_outcome o) vs)

let cache_hammer =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"vc-cache-parallel-consistent" ~count:30
       QCheck.(
         make
           ~print:(fun l -> String.concat " | " (List.map print_verdicts l))
           (Gen.list_size (Gen.int_range 4 10) gen_verdicts))
       (fun instances ->
         let arr = Array.of_list instances in
         let n = Array.length arr in
         let key j = Printf.sprintf "key-%d" j in
         let cache = E.Vc_cache.create () in
         let work offset () =
           List.init n (fun i ->
               let j = (i + offset) mod n in
               let before =
                 match E.Vc_cache.lookup_verdicts cache (key j) with
                 | None -> true
                 | Some (v, _) -> v = arr.(j)
               in
               E.Vc_cache.store_verdicts cache (key j) arr.(j);
               let after =
                 match E.Vc_cache.lookup_verdicts cache (key j) with
                 | Some (v, `Memory) -> v = arr.(j)
                 | _ -> false
               in
               before && after)
         in
         let spawned = List.init 3 (fun d -> Domain.spawn (work (d + 1))) in
         let mine = work 0 () in
         let got = mine :: List.map Domain.join spawned in
         List.for_all (List.for_all Fun.id) got
         && E.Vc_cache.size cache = n
         && E.Vc_cache.hits cache + E.Vc_cache.disk_hits cache
            + E.Vc_cache.misses cache
            = 2 * 4 * n
         && E.Vc_cache.corrupt cache = 0))

let () =
  Alcotest.run "engine"
    [
      ( "engine",
        [
          Alcotest.test_case "registry-first-use" `Quick
            test_registry_first_use;
          Alcotest.test_case "parallel-matches-sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "engine-stats" `Quick test_engine_stats;
          cache_hammer;
        ] );
    ]
