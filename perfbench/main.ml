(** The benchmark of record (corpus, serve_cold; serve_hot runs by name):
    end-to-end metrics untraced, per-layer metrics from a traced run.

    {v
    bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
    v}

    Workloads, metrics and the layer-to-metric map are documented in
    [perfbench/README.md]. Every run checks each verdict against the
    generator's known answer; the last line of standard output is the
    JSON result. *)

open Perfbench
module J = Server.Json
module P = Server.Protocol
module E = Engine
module C = Suite.Corpus
module D = Daemon_io
module V = Verifier.Exec

let now = Clock.now
let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

(* ------------------------------------------------------------------ *)
(* Run state *)

let workdir = ref ""

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let state_dir = ".perfbench"

(** A fresh directory for one run (sockets, cache directories, logs),
    removed at exit together with every process the run started. *)
let setup_workdir () =
  let d = Filename.concat state_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  workdir := d;
  at_exit (fun () ->
      D.kill_all ();
      rm_rf !workdir)

let in_work f = Filename.concat !workdir f

(** Write every dirty page out ([sync(1)]), so that the disk writes of
    one daemon instance are not flushed while the next is measured. *)
let settle_disk () =
  let pid = Unix.create_process "sync" [| "sync" |] Unix.stdin Unix.stdout Unix.stderr in
  ignore (D.waitpid_eintr pid)

(* Operations attempted and failed, for the result line. A failure is a
   wrong verdict, a non-ok or busy response, or a request left
   unanswered. *)
let attempted = ref 0
let failed = ref 0
let wrong = ref 0

let count_op ok =
  incr attempted;
  if not ok then incr failed

(* ------------------------------------------------------------------ *)
(* Host facts *)

let read_file path = try In_channel.with_open_text path In_channel.input_all with Sys_error _ -> ""

let host_facts () =
  let cpu =
    String.split_on_char '\n' (read_file "/proc/cpuinfo")
    |> List.find_map (fun l ->
           match String.index_opt l ':' with
           | Some i when String.starts_with ~prefix:"model name" l ->
               Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  in
  let loadavg =
    match String.split_on_char ' ' (read_file "/proc/loadavg") with
    | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
    | _ -> "unknown"
  in
  [
    ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
    ("ocaml", J.Str Sys.ocaml_version);
    ("cpu", J.Str cpu);
    ("loadavg_at_start", J.Str loadavg);
  ]

(** This machine's CPU time so far, from the first line of [/proc/stat]:
    the ticks the hypervisor gave to other tenants while this machine's
    CPUs wanted to run (steal), and all ticks. Both read 0 where the file
    does not exist. *)
let cpu_ticks () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | l :: _ -> (
      match List.filter (fun f -> f <> "") (String.split_on_char ' ' l) with
      | "cpu" :: fields ->
          (* user nice system idle iowait irq softirq steal *)
          let v = List.filteri (fun i _ -> i < 8) (List.filter_map int_of_string_opt fields) in
          ((match List.nth_opt v 7 with Some st -> st | None -> 0), List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | [] -> (0, 0)

(** The share of CPU time stolen since [(steal, total)] was read. *)
let stolen_since (steal0, total0) =
  let steal1, total1 = cpu_ticks () in
  if total1 > total0 then float_of_int (steal1 - steal0) /. float_of_int (total1 - total0) else 0.0

(* ------------------------------------------------------------------ *)
(* Determinism: counts that must repeat exactly *)

(** [text], the counts that must repeat exactly, must equal what any
    earlier run of the same build on the same workload and seed
    recorded; the first run records them. *)
let check_repeat ~workload ~seed text =
  let dir = Filename.concat state_dir "counts" in
  mkdir_p dir;
  let key = Digest.to_hex (Digest.file Sys.executable_name) in
  let path = Filename.concat dir (Printf.sprintf "%s-%s-%d" key workload seed) in
  if Sys.file_exists path then begin
    let before = read_file path in
    if not (String.equal before text) then
      invalid "counts differ from an earlier run of this build (%s):\n--- before\n%s\n--- now\n%s"
        path before text
  end
  else Out_channel.with_open_text path (fun oc -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Counters of the verifier and the solver *)

let vcounts (vs : Verifier.Vstats.t) (ss : Smt.Stats.t) =
  [
    ("verifier.obligations", float_of_int vs.Verifier.Vstats.obligations);
    ("verifier.chunk_matches", float_of_int vs.Verifier.Vstats.chunk_matches);
    ("verifier.absint_discharged", float_of_int vs.Verifier.Vstats.absint_discharged);
    ("smt.queries", float_of_int ss.Smt.Stats.queries);
    ("smt.session_checks", float_of_int ss.Smt.Stats.session_checks);
    ("smt.session_fallbacks", float_of_int ss.Smt.Stats.session_fallbacks);
    ("smt.theory_checks", float_of_int ss.Smt.Stats.theory_checks);
    ("smt.lia_checks", float_of_int ss.Smt.Stats.lia_checks);
    ("smt.sat_conflicts", float_of_int ss.Smt.Stats.sat_conflicts);
  ]

(* ------------------------------------------------------------------ *)
(* corpus *)

let corpus_size = 2000

(** The verdict manifest of [Suite.Corpus.generate ~seed:42 ~size:2000]
    has this 16-bit digest prefix; BENCH_corpus.json pins the same value
    as [corpus_j1.manifest16]. *)
let pinned_seed = 42
let pinned_manifest16 = 8966

let corpus_config = { E.default_config with E.domains = 1 }
let programs specs = List.map (fun (s : C.spec) -> (s.C.name, s.C.program)) specs

(** Check every group's verdict against the generator's answer; returns
    the verdicts as [(name, failed)]. *)
let check_corpus specs (report : E.report) =
  List.map2
    (fun (s : C.spec) (g : E.group_result) ->
      let failed = not (E.group_ok g) in
      let ok = String.equal s.C.name g.E.group && Bool.equal s.C.expect_fail failed in
      count_op ok;
      if not ok then incr wrong;
      (g.E.group, failed))
    specs report.E.groups

let check_pinned_manifest () =
  let specs = C.generate ~seed:pinned_seed ~size:corpus_size in
  let verdicts = check_corpus specs (E.verify_programs ~config:corpus_config (programs specs)) in
  let digest = C.manifest_digest verdicts in
  let m16 = int_of_string ("0x" ^ String.sub digest 0 4) in
  if m16 <> pinned_manifest16 then begin
    incr failed;
    incr wrong;
    say "corpus manifest at seed %d: %s (prefix %d, pinned %d) MISMATCH" pinned_seed digest m16
      pinned_manifest16
  end
  else say "corpus manifest at seed %d: %s (prefix %d = pinned)" pinned_seed digest m16

(** One corpus process: a cold pass, then rounds for [seconds]. A round
    is one batch pass over the whole corpus followed by
    [calls_per_round] single-program engine calls. Prints one JSON line
    for the parent. *)
let calls_per_round = 300

let corpus_child ~seed ~seconds =
  let specs = Array.of_list (C.generate ~seed ~size:corpus_size) in
  let progs = programs (Array.to_list specs) in
  for _ = 1 to 5 do
    ignore (Calib.sample ())
  done;
  let host = ref (Calib.sample ()) in
  let t0 = now () in
  let cold = E.verify_programs ~config:corpus_config progs in
  let cold_s = now () -. t0 in
  let cold_factor =
    let before = !host in
    host := Calib.sample ();
    Calib.factor ~before ~after:!host
  in
  ignore (check_corpus (Array.to_list specs) cold);
  let rounds = ref [] and words = ref [] and counts = ref [] and ncalls = ref 0 in
  let until = now () +. seconds in
  while now () < until || List.length !rounds < 3 do
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = E.verify_programs ~config:corpus_config progs in
    let pass_ms = (now () -. t0) *. 1000.0 in
    let w = Gc.minor_words () -. w0 in
    ignore (check_corpus (Array.to_list specs) r);
    (* The single-program calls leave state behind that later passes
       allocate around, so the allocation that must repeat exactly is
       that of the first steady passes, before any call. *)
    if !ncalls = 0 then words := w :: !words;
    counts := vcounts r.E.stats.E.vstats r.E.stats.E.smt :: !counts;
    let calls =
      List.init calls_per_round (fun _ ->
          let s = specs.(!ncalls mod Array.length specs) in
          incr ncalls;
          let t0 = now () in
          let r = E.verify_programs ~config:corpus_config [ (s.C.name, s.C.program) ] in
          let ms = (now () -. t0) *. 1000.0 in
          ignore (check_corpus [ s ] r);
          ms)
    in
    let before = !host in
    host := Calib.sample ();
    let f = Calib.factor ~before ~after:!host in
    rounds :=
      J.List
        [
          Report.number (pass_ms /. f);
          J.List (List.map (fun ms -> Report.number (ms /. f)) calls);
          Report.number pass_ms;
        ]
      :: !rounds
  done;
  let distinct l = List.sort_uniq compare l in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("cold_s", Report.number (cold_s /. cold_factor));
            ("cold_raw_s", Report.number cold_s);
            ("rounds", J.List (List.rev !rounds));
            ("minor_words", J.List (List.map Report.number (distinct !words)));
            ( "counts",
              J.List
                (List.map
                   (fun c -> J.Obj (List.map (fun (k, v) -> (k, Report.number v)) c))
                   (distinct !counts)) );
            ("rss_mb", Report.number (D.peak_rss_mb 0));
            ("attempted", J.Num (float_of_int !attempted));
            ("failed", J.Num (float_of_int !failed));
          ]))

let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let pid = Unix.process_in_pid ic in
  D.register pid;
  let out = In_channel.input_all ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> invalid "child process %s failed" (String.concat " " args));
  D.forget pid;
  match J.parse (String.trim out) with
  | Ok v -> v
  | Error m -> invalid "child process printed no result: %s" m

let floats k v =
  match J.member k v with
  | Some (J.List l) -> Array.of_list (List.filter_map J.to_num l)
  | _ -> [||]

let num k v = Option.value ~default:nan (J.num_member k v)

(* The corpus run is spread over several fresh processes, whose pass
   times differ with heap layout and placement. Other tenants of the
   host slow everything in phases of seconds to a minute, by up to half;
   each process rescales its times to a host of reference speed
   ([Calib]), from kernel samples taken around each round and around the
   cold pass. Times are medians over the rescaled rounds and calls of
   all processes; the set-up time is the median of the processes' cold
   passes. *)
let corpus_processes = 8

let lower_quartile l = Pstats.nearest_rank 25.0 (Array.of_list l)

(* tail_note: the p99 latencies are printed, not reported as metrics.
   On the shared host this benchmark was made on, a serve window's p99 is
   set by the wake-up delays of the generator and the daemon and by the
   CPU time the hypervisor steals, and ten runs of the same code spread
   by 0.13 to 0.47 of their median whatever statistic combined the
   windows: too wide for a bound of 0.25. *)

let corpus_untraced ~seed ~seconds =
  check_pinned_manifest ();
  let per = seconds /. float_of_int corpus_processes in
  let children =
    List.init corpus_processes (fun _ ->
        run_child
          [ "--child"; "corpus"; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" per ])
  in
  (* a corpus process fails an operation only on a wrong verdict *)
  List.iter
    (fun c ->
      let f = int_of_float (num "failed" c) in
      attempted := !attempted + int_of_float (num "attempted" c);
      failed := !failed + f;
      wrong := !wrong + f)
    children;
  let all k = Array.concat (List.map (floats k) children) in
  let words = List.sort_uniq compare (Array.to_list (all "minor_words")) in
  let counts =
    List.sort_uniq compare
      (List.concat_map
         (fun c ->
           match J.member "counts" c with
           | Some (J.List l) -> List.map J.to_string l
           | _ -> [])
         children)
  in
  (match (words, counts) with
  | [ w ], [ c ] -> check_repeat ~workload:"corpus" ~seed (Printf.sprintf "minor_words %.17g\n%s" w c)
  | _ ->
      invalid "steady corpus passes disagree on allocation or solver counts: words [%s], %d count sets"
        (String.concat "; " (List.map string_of_float words)) (List.length counts));
  let rounds =
    List.concat_map
      (fun c ->
        match J.member "rounds" c with
        | Some (J.List rs) ->
            List.filter_map
              (function
                | J.List [ J.Num pass; J.List calls; J.Num raw ] ->
                    Some (pass, List.filter_map J.to_num calls, raw)
                | _ -> None)
              rs
        | _ -> [])
      children
  in
  let pass_ms = Array.of_list (List.map (fun (p, _, _) -> p) rounds) in
  let raw_ms = Array.of_list (List.map (fun (_, _, r) -> r) rounds) in
  let calls = Array.of_list (List.concat_map (fun (_, cs, _) -> cs) rounds) in
  let pct p =
    match Pstats.percentile p calls with
    | Some v -> v
    | None -> invalid "too few single-program calls for a p%g" p
  in
  let pass = Pstats.median pass_ms in
  say "corpus: %d processes, %d rounds, %d single-program calls; pass time %.1f ms at reference speed, %.1f ms as measured (medians)"
    corpus_processes (Array.length pass_ms) (Array.length calls) pass (Pstats.median raw_ms);
  say "corpus: cold pass %.1f ms as measured (median)"
    (1000.0 *. Pstats.median (Array.of_list (List.map (num "cold_raw_s") children)));
  say "corpus: single-program call p99 %.4f ms (printed only; see tail_note)" (pct 99.0);
  [
    ("setup_s", Pstats.median (Array.of_list (List.map (num "cold_s") children)), "s");
    ("procs_per_s", float_of_int corpus_size /. (pass /. 1000.0), "1/s");
    ("p50_ms", pct 50.0, "ms");
    ("peak_rss_mb", Pstats.median (Array.of_list (List.map (num "rss_mb") children)), "MiB");
    ("alloc_kw_per_proc", List.hd words /. float_of_int corpus_size /. 1000.0, "kw");
  ]

(* ------------------------------------------------------------------ *)
(* Runtime events (GC) *)

type gc = {
  mutable minors : int;
  mutable slices : int;
  mutable pause_ns : int64;
  mutable alloc_words : int;
  mutable lost : int;
  begun : (int * Runtime_events.runtime_phase, int64) Hashtbl.t;
}

let gc_create () =
  { minors = 0; slices = 0; pause_ns = 0L; alloc_words = 0; lost = 0; begun = Hashtbl.create 8 }

let gc_callbacks g =
  let open Runtime_events in
  let tracked = function EV_MINOR | EV_MAJOR_SLICE -> true | _ -> false in
  Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if tracked phase then Hashtbl.replace g.begun (ring, phase) (Timestamp.to_int64 ts))
    ~runtime_end:(fun ring ts phase ->
      match Hashtbl.find_opt g.begun (ring, phase) with
      | Some t0 ->
          Hashtbl.remove g.begun (ring, phase);
          g.pause_ns <- Int64.add g.pause_ns (Int64.sub (Timestamp.to_int64 ts) t0);
          if phase = EV_MINOR then g.minors <- g.minors + 1 else g.slices <- g.slices + 1
      | None -> ())
    ~runtime_counter:(fun _ _ c v ->
      (* the counter is in bytes *)
      if c = EV_C_MINOR_ALLOCATED then g.alloc_words <- g.alloc_words + (v / (Sys.word_size / 8)))
    ~lost_events:(fun _ n -> g.lost <- g.lost + n)
    ()

let gc_reset g =
  g.minors <- 0;
  g.slices <- 0;
  g.pause_ns <- 0L;
  g.alloc_words <- 0

let runtime_metrics g ~ops =
  let per x = float_of_int x /. float_of_int (max 1 ops) in
  [
    ("runtime.gc_pause_ms", Int64.to_float g.pause_ns /. 1e6 /. float_of_int (max 1 ops), "ms");
    ("runtime.minor_collections", per g.minors, "count");
    ("runtime.major_slices", per g.slices, "count");
    ("runtime.alloc_words", per g.alloc_words, "words");
  ]

(* ------------------------------------------------------------------ *)
(* The traced corpus run *)

let disagreements : string list ref = ref []
let disagree fmt = Printf.ksprintf (fun s -> disagreements := s :: !disagreements) fmt

(** The solver's own clock against the measured verify time: the solver
    ran, so its time cannot be (nearly) zero. *)
let check_solve_ms (ss : Smt.Stats.t) ~verify_ms =
  let checks = ss.Smt.Stats.session_checks + ss.Smt.Stats.queries in
  if checks > 0 && ss.Smt.Stats.solve_ms < 0.01 *. verify_ms then
    disagree "smt: Stats.solve_ms reports %.2f ms for %d session checks and %d queries; verification measured %.1f ms"
      ss.Smt.Stats.solve_ms ss.Smt.Stats.session_checks ss.Smt.Stats.queries verify_ms

let corpus_traced ~seed ~seconds spans =
  let specs = C.generate ~seed ~size:corpus_size in
  let progs = programs specs in
  ignore (check_corpus specs (E.verify_programs ~config:corpus_config progs));
  let passes = max 3 (int_of_float (seconds /. 0.6)) in
  let timed () =
    let t0 = now () in
    let r = E.verify_programs ~config:corpus_config progs in
    ((now () -. t0) *. 1000.0, r)
  in
  Runtime_events.start ();
  Runtime_events.pause ();
  let cursor = Runtime_events.create_cursor None in
  let g = gc_create () in
  let cb = gc_callbacks g in
  ignore (Runtime_events.read_poll cursor cb None);
  gc_reset g;
  (* untraced and traced passes alternate, so host phases hit both *)
  let minors = ref 0 and words = ref 0.0 in
  let untraced = Array.make passes 0.0 in
  let traced =
    Array.init passes (fun i ->
        untraced.(i) <- fst (timed ());
        Runtime_events.resume ();
        let minors0 = (Gc.quick_stat ()).Gc.minor_collections and words0 = Gc.minor_words () in
        let r =
          Spans.record spans ~req:i "engine.verify_programs" (fun _ ->
              E.verify_programs ~config:corpus_config progs)
        in
        let outside = Spans.duration (Spans.last spans) *. 1000.0 in
        minors := !minors + (Gc.quick_stat ()).Gc.minor_collections - minors0;
        words := !words +. Gc.minor_words () -. words0;
        Runtime_events.pause ();
        ignore (check_corpus specs r);
        ignore (Runtime_events.read_poll cursor cb None);
        (outside, r.E.stats.E.wall_ms))
  in
  let procs = passes * corpus_size in
  let minors = !minors and words = !words in
  let traced_ms = Array.map fst traced in
  let stitch = Array.map (fun (outside, wall) -> outside -. wall) traced in
  let wall_med = Pstats.median (Array.map snd traced) and outside_med = Pstats.median traced_ms in
  if Float.abs (outside_med -. wall_med) > 0.05 *. outside_med then
    disagree "engine: report wall_ms %.1f ms, outside call %.1f ms (medians of %d passes; %.1f ms outside the report's clock)"
      wall_med outside_med passes (outside_med -. wall_med);
  (* Layer replay: every procedure through the verifier alone. *)
  let vs = Verifier.Vstats.create () and ss = ref (Smt.Stats.create ()) in
  let verify_us =
    Array.of_list
      (List.mapi
         (fun i (s : C.spec) ->
           Smt.Stats.reset ();
           Spans.record spans ~req:(passes + i) "verifier.verify" (fun _ ->
               ignore (V.verify ~absint:true ~stats:vs s.C.program));
           ss := Smt.Stats.sum !ss (Smt.Stats.snapshot ());
           Spans.duration (Spans.last spans) *. 1e6)
         specs)
  in
  let n = float_of_int corpus_size in
  let verify_ms_total = Array.fold_left ( +. ) 0.0 verify_us /. 1000.0 in
  let solve_ms = !ss.Smt.Stats.solve_ms in
  check_solve_ms !ss ~verify_ms:verify_ms_total;
  let counts = List.map (fun (k, v) -> (k, v /. n, "count")) (vcounts vs !ss) in
  let untraced_med = Pstats.median untraced and traced_med = Pstats.median traced_ms in
  let stitch_med = Pstats.median stitch in
  let unattributed = traced_med -. stitch_med -. verify_ms_total in
  let g_metrics =
    List.map
      (fun (k, v, u) ->
        match k with
        | "runtime.minor_collections" -> (k, float_of_int minors /. float_of_int procs, u)
        | "runtime.alloc_words" -> (k, words /. float_of_int procs, u)
        | _ -> (k, v, u))
      (runtime_metrics g ~ops:procs)
  in
  ( [
      ("verifier.verify_us", Pstats.median verify_us, "us");
      ("smt.solve_ms_reported", solve_ms /. n, "ms");
      ("smt.verify_ms_measured", verify_ms_total /. n, "ms");
      ("engine.stitch_ms", stitch_med, "ms");
      ("trace.untraced_ms", untraced_med, "ms");
      ("trace.traced_ms", traced_med, "ms");
      ("trace.overhead_pct", 100.0 *. (traced_med -. untraced_med) /. untraced_med, "%");
      ("trace.unattributed_pct", 100.0 *. unattributed /. traced_med, "%");
    ]
    @ counts @ g_metrics,
    g.lost )

(* ------------------------------------------------------------------ *)
(* Serve workloads: the generator side *)

type serve_spec = {
  rate : float;  (** the workload's fixed offered rate, req/s *)
  p99_limit_ms : float;
  subwindows : int;  (** p99 windows per daemon instance *)
}

let serve_cold_spec = { rate = 300.0; p99_limit_ms = 10.0; subwindows = 1 }
let serve_hot_spec = { rate = 1000.0; p99_limit_ms = 5.0; subwindows = 3 }

let request_line ~id (s : Hlgen.src) =
  P.line
    (P.verify_request ~id:(J.Num (float_of_int id)) ~lint:true
       (P.Source { file = s.Hlgen.name ^ ".hl"; source = s.Hlgen.source }))

(* Ids of one phase are phase * [phase_span] + index, so a late answer
   from an earlier phase is never taken for a current one. *)
let phase_counter = ref 0
let phase_span = 10_000_000

let next_phase () =
  incr phase_counter;
  !phase_counter

type verdict = Good | Wrong | Busy | Error

(** Judge one response against the generator's known answer. *)
let judge (s : Hlgen.src) (r : D.reply) =
  if r.D.busy then Busy
  else if not r.D.ok then Error
  else
    let want_exit, want_status = if s.Hlgen.expect_fail then (1, "misbehaved") else (0, "ok") in
    if r.D.exit_code = Some want_exit && r.D.status = Some want_status then Good else Wrong

(** Book one judged response. Inside a [max_rps] trial ([probe]) a busy
    answer only means the offered rate was too high; everywhere else it
    is a failed operation. *)
let book ~probe v =
  match v with
  | Good -> count_op true
  | Wrong ->
      incr wrong;
      count_op false
  | Busy -> if not probe then count_op false
  | Error -> count_op false

(** Replies for the current phase among the lines received. *)
let replies ~phase lines =
  List.filter_map
    (fun l ->
      match D.reply_of_line l with
      | Some r when r.D.id / phase_span = phase -> Some (r.D.id mod phase_span, r)
      | _ -> None)
    lines

(** One request, waited for: its verdict. *)
let one_request c (s : Hlgen.src) =
  let phase = next_phase () in
  D.send c (request_line ~id:(phase * phase_span) s);
  let deadline = now () +. 60.0 in
  let rec go () =
    if now () > deadline then invalid "no answer to a single request";
    match replies ~phase (D.recv_lines c 0.05) with
    | (_, r) :: _ ->
        let v = judge s r in
        book ~probe:false v;
        v
    | [] -> go ()
  in
  go ()

(** An open-loop window of [n] requests at [rate]. Request lines are
    rendered before the window opens, so the generator only copies
    bytes while it keeps time. *)
let window c ~rate ~n ~(src : int -> Hlgen.src) ?limit_ms ?(on_poll = ignore) () =
  let probe = limit_ms <> None in
  let phase = next_phase () in
  let srcs = Array.init n src in
  let lines = Array.mapi (fun i s -> request_line ~id:((phase * phase_span) + i) s) srcs in
  let conn =
    {
      Openloop.send = (fun i -> D.send c lines.(i));
      poll =
        (fun timeout ->
          let got = D.recv_lines c timeout in
          on_poll ();
          List.map
            (fun (i, r) ->
              let v = judge srcs.(i) r in
              book ~probe v;
              (i, v = Good))
            (replies ~phase got));
    }
  in
  let r = Openloop.run ~now ~rate ~n ?limit_ms conn in
  attempted := !attempted + r.Openloop.unanswered;
  failed := !failed + r.Openloop.unanswered;
  r

(** Closed loop with [depth] requests in flight for [seconds]: the
    daemon's throughput, in requests per second, over each of ten blocks
    of consecutive completions (timing blocks of completions rather than
    counting completions in fixed slices keeps the figure continuous). *)
let capacity_blocks = 10

let closed_loop c ~depth ~seconds ~(src : int -> Hlgen.src) =
  let phase = next_phase () in
  let sent = ref 0 and inflight = Hashtbl.create 16 and completions = ref [] in
  let send_next () =
    let s = src !sent in
    Hashtbl.replace inflight !sent s;
    D.send c (request_line ~id:((phase * phase_span) + !sent) s);
    incr sent
  in
  let t0 = now () in
  let until = t0 +. seconds in
  for _ = 1 to depth do
    send_next ()
  done;
  let deadline = until +. 30.0 in
  while Hashtbl.length inflight > 0 && now () < deadline do
    List.iter
      (fun (i, r) ->
        match Hashtbl.find_opt inflight i with
        | Some s ->
            Hashtbl.remove inflight i;
            book ~probe:false (judge s r);
            let t = now () in
            completions := t :: !completions;
            if t < until then send_next ()
        | None -> ())
      (replies ~phase (D.recv_lines c 0.05))
  done;
  let open_ = Hashtbl.length inflight in
  attempted := !attempted + open_;
  failed := !failed + open_;
  let times = Array.of_list (t0 :: List.rev !completions) in
  let per = max 1 ((Array.length times - 1) / capacity_blocks) in
  Array.init capacity_blocks (fun k ->
      let a = k * per and b = min (Array.length times - 1) ((k + 1) * per) in
      float_of_int (b - a) /. (times.(b) -. times.(a)))

(** The latencies of a window's [segments] equal segments, without
    those in which the generator itself fell behind its schedule.
    Wake-up jitter on a shared host makes single writes late by
    milliseconds now and then, and that delay stays in the due-time
    latencies. A segment is flagged, and left out rather than averaged
    in, when its median write lag exceeds a quarter of the workload's
    p99 limit: then the generator was late as a rule. *)
let unflagged ~segments ~p99_limit_ms (r : Openloop.result) =
  let n = r.Openloop.sent in
  let seg = max 1 (n / segments) in
  let kept = ref [] and flagged = ref 0 and lag50 = ref 0.0 and lag99 = ref 0.0 in
  for s = 0 to segments - 1 do
    let lo = s * seg and hi = if s = segments - 1 then n else (s + 1) * seg in
    if hi > lo then begin
      let lags = Pstats.sorted (Array.sub r.Openloop.lag_ms lo (hi - lo)) in
      let at p = lags.(Pstats.rank p (Array.length lags)) in
      lag50 := Float.max !lag50 (at 50.0);
      lag99 := Float.max !lag99 (at 99.0);
      if at 50.0 > 0.25 *. p99_limit_ms then incr flagged
      else kept := Openloop.answered ~lo ~hi r :: !kept
    end
  done;
  (List.rev !kept, !flagged, (!lag50, !lag99))

(* ------------------------------------------------------------------ *)
(* Serve workloads: one request's layer calls, replayed in-process *)

type replay = {
  cache : E.Vc_cache.t;
  spans : Spans.t option;
  vs : Verifier.Vstats.t;
  mutable ss : Smt.Stats.t;
  mutable diags : int;
}

let new_replay ?spans cache =
  { cache; spans; vs = Verifier.Vstats.create (); ss = Smt.Stats.create (); diags = 0 }

(** The daemon's path for one [verify] request with [lint: true]:
    decode, parse, elaborate, verdict lookup, lint, and on a miss verify
    and store, then render. Without spans it allocates exactly what the
    daemon's handler allocates for the same request, minus the socket. *)
let replay_request rp ~req (s : Hlgen.src) line =
  let span ?(parent = -1) name f =
    match rp.spans with
    | None -> f ()
    | Some t -> Spans.record t ~parent ~req name (fun _ -> f ())
  in
  let body parent =
    let target, lint, absint, seed =
      match span ~parent "server.protocol.decode" (fun () -> P.request_of_line line) with
      | Ok (P.Verify { target; lint; absint; seed; _ }) -> (target, lint, absint, seed)
      | _ -> invalid "replay: request did not decode"
    in
    let file, source =
      match target with P.Source { file; source } -> (file, source) | P.Entry _ -> assert false
    in
    let surface = span ~parent "heaplang.parse" (fun () -> Heaplang.Parser.parse_program ~file source) in
    let prog, srcmap = span ~parent "verifier.elab" (fun () -> Verifier.Elab.program surface) in
    let key = Server.Daemon.verdict_key ~lint ~absint ~seed target in
    let t0 = now () in
    let found = E.Vc_cache.lookup_verdicts rp.cache key in
    let t1 = now () in
    Option.iter
      (fun t ->
        let name =
          match found with
          | None -> "vc_cache.lookup_miss"
          | Some (_, `Memory) -> "vc_cache.hit_mem"
          | Some (_, `Disk) -> "vc_cache.hit_disk"
        in
        Spans.add t ~parent ~req name ~start:t0 ~stop:t1)
      rp.spans;
    let lint_results, a =
      span ~parent "analysis.lint" (fun () ->
          E.run_analysis ~srcmaps:[ (file, srcmap) ] ~absint ~domains:1 [ (file, prog) ])
    in
    rp.diags <- rp.diags + a.E.a_diags;
    let outcomes, tier =
      match found with
      | Some (outcomes, tier) -> (outcomes, tier)
      | None ->
          Smt.Stats.reset ();
          let outcomes =
            span ~parent "verifier.verify" (fun () -> V.verify ~absint ~seed ~stats:rp.vs prog)
          in
          rp.ss <- Smt.Stats.sum rp.ss (Smt.Stats.snapshot ());
          span ~parent "vc_cache.store" (fun () -> E.Vc_cache.store_verdicts rp.cache key outcomes);
          (outcomes, `Memory)
    in
    let status =
      span ~parent "server.render.encode" (fun () ->
          let report = { (E.cached_report ~group:file ~outcomes ~tier ~wall_ms:0.0) with E.lint = lint_results } in
          let g = List.hd report.E.groups in
          let status = Server.Render.entry_status ~expect_fail:false g in
          let output =
            Server.Daemon.lint_findings_text ~source lint_results
            ^ Server.Render.group_text ~name:file ~expect_fail:false status g
          in
          ignore
            (P.line
               (P.response ~id:J.Null
                  [
                    ("ok", J.Bool true);
                    ("exit", J.Num (float_of_int (Server.Render.exit_of_status status)));
                    ("status", J.Str (Server.Render.status_string status));
                    ("report", J.Raw (Server.Render.json_of_report report [ (file, false, status) ]));
                    ("output", J.Str output);
                  ]));
          status)
    in
    let want = if s.Hlgen.expect_fail then "misbehaved" else "ok" in
    if not (String.equal (Server.Render.status_string status) want) then begin
      incr wrong;
      count_op false
    end
  in
  match rp.spans with
  | None -> body (-1)
  | Some t -> Spans.record t ~req "request" body

(** Minor words per request of the replayed handler path, in a process
    of its own: the solver's term pool is a weak table, so what it still
    holds, and so what a request allocates, depends on the process's
    history. The cache is memory-only (disk file names carry the process
    id). On [hot], the requests are first replayed once so the measured
    pass hits. Prints one JSON line for the parent. *)
let replay_child ~hot ~seed =
  (* serve_hot's pool is sources 0..999; serve_cold replays sources far
     beyond any index its windows reach *)
  let srcs = Array.init 1000 (fun i -> Hlgen.make ~seed (if hot then i else 1_000_000_000 + i)) in
  let rp = new_replay (E.Vc_cache.create ()) in
  let lines = Array.map (request_line ~id:0) srcs in
  if hot then Array.iteri (fun i s -> replay_request rp ~req:i s lines.(i)) srcs;
  let vs0 = Verifier.Vstats.copy rp.vs and ss0 = Smt.Stats.copy rp.ss in
  let w0 = Gc.minor_words () in
  Array.iteri (fun i s -> replay_request rp ~req:i s lines.(i)) srcs;
  let words = Gc.minor_words () -. w0 in
  let counts =
    List.map2
      (fun (k, a) (_, b) -> (k, a -. b))
      (vcounts rp.vs rp.ss) (vcounts vs0 ss0)
  in
  print_endline
    (J.to_string
       (J.Obj
          (("alloc_kw", Report.number (words /. float_of_int (Array.length srcs) /. 1000.0))
          :: ("failed", J.Num (float_of_int !failed))
          :: List.map (fun (k, v) -> (k, Report.number v)) counts)))

(* ------------------------------------------------------------------ *)
(* Serve workloads *)

type serve = {
  hot : bool;
  spec : serve_spec;
  seed : int;
  cache_dir : string;
  sock : string;
  log : string;
  mutable next_fresh : int;
  mutable pool : Hlgen.src array;  (** serve_hot: the prefilled sources *)
  rng : Random.State.t;
}

let new_serve ~hot ~seed =
  {
    hot;
    spec = (if hot then serve_hot_spec else serve_cold_spec);
    seed;
    cache_dir = in_work "cache";
    sock = in_work "d.sock";
    log = in_work "daemon.log";
    next_fresh = 0;
    pool = [||];
    rng = Random.State.make [| 0x407; seed |];
  }

(** The next source never sent before. *)
let fresh sv =
  let s = Hlgen.make ~seed:sv.seed sv.next_fresh in
  sv.next_fresh <- sv.next_fresh + 1;
  s

(** The workload's stream: distinct sources on serve_cold, already
    verified ones drawn at random on serve_hot. *)
let pick sv _ =
  if sv.hot then sv.pool.(Random.State.int sv.rng (Array.length sv.pool)) else fresh sv

let prefill_size = 1000

(** Start a daemon and time it to its first ok answer. *)
let start_daemon ?env sv =
  let t0 = now () in
  let d = D.spawn ?env ~sock:sv.sock ~cache_dir:sv.cache_dir ~log:sv.log () in
  let c = D.connect d in
  if one_request c (pick sv 0) <> Good then invalid "first request after start-up failed";
  (d, c, now () -. t0)

(** serve_hot's cache: a daemon on a fresh directory verifies the pool
    once (closed loop, untimed), then stops. *)
let prefill sv =
  rm_rf sv.cache_dir;
  sv.pool <- Array.init prefill_size (fun _ -> fresh sv);
  let d = D.spawn ~sock:sv.sock ~cache_dir:sv.cache_dir ~log:sv.log () in
  let c = D.connect d in
  let phase = next_phase () in
  let sent = ref 0 and done_ = ref 0 in
  let depth = 8 in
  while !done_ < prefill_size do
    while !sent < prefill_size && !sent - !done_ < depth do
      D.send c (request_line ~id:((phase * phase_span) + !sent) sv.pool.(!sent));
      incr sent
    done;
    List.iter
      (fun (i, r) ->
        book ~probe:false (judge sv.pool.(i) r);
        incr done_)
      (replies ~phase (D.recv_lines c 0.05))
  done;
  D.shutdown d c

let stat_field path st =
  let rec go v = function
    | [] -> J.to_num v
    | k :: rest -> Option.bind (J.member k v) (fun v -> go v rest)
  in
  Option.value ~default:0.0 (go st ("stats" :: path))

let stat_paths =
  [
    ("server.scheduler.submitted", [ "submitted" ]);
    ("server.scheduler.completed", [ "completed" ]);
    ("server.scheduler.rejected", [ "rejected" ]);
    ("server.supervisor.shed", [ "supervisor"; "shed" ]);
    ("server.supervisor.preempted", [ "supervisor"; "preempted" ]);
    ("server.supervisor.crashes", [ "supervisor"; "crashes" ]);
    ("server.supervisor.degraded_served", [ "supervisor"; "degraded_served" ]);
    ("server.cache.mem_hits", [ "cache"; "mem_hits" ]);
    ("server.cache.disk_hits", [ "cache"; "disk_hits" ]);
    ("server.cache.misses", [ "cache"; "misses" ]);
  ]

let stat_deltas st0 st1 =
  List.map (fun (name, path) -> (name, stat_field path st1 -. stat_field path st0)) stat_paths

(** The supervisor must not have shed, preempted or lost a request. *)
let check_health deltas =
  List.iter
    (fun k ->
      let v = List.assoc k deltas in
      if v <> 0.0 then invalid "%s moved by %g during the run" k v)
    [ "server.supervisor.shed"; "server.supervisor.preempted"; "server.supervisor.crashes" ]

let workload_name sv = if sv.hot then "serve_hot" else "serve_cold"

(** One fixed-rate window of [n] requests cut into [segments]: the
    latencies of its unflagged segments. *)
let fixed_window sv c ~n ~segments =
  let r = window c ~rate:sv.spec.rate ~n ~src:(pick sv) () in
  let lat, flagged, (lag50, lag99) = unflagged ~segments ~p99_limit_ms:sv.spec.p99_limit_ms r in
  say "%s: %d requests at %.0f/s; generator lag (worst segment) p50 %.3f ms, p99 %.3f ms; %d of %d segments flagged"
    (workload_name sv) n sv.spec.rate lag50 lag99 flagged segments;
  lat

(** The [max_rps] search: a ladder of open-loop trials from 1.3x the
    closed-loop capacity down, each long enough for a p99. *)
let max_rps_search sv c ~cap ~trial_s =
  let trial rate =
    let n = max 1100 (int_of_float (rate *. trial_s)) in
    let limit_ms = sv.spec.p99_limit_ms in
    let r = window c ~rate ~n ~src:(pick sv) ~limit_ms () in
    Openloop.meets ~p99_limit_ms:limit_ms ~n r
  in
  let best, trials = Openloop.max_rate ~lo:(0.05 *. cap) ~hi:(1.3 *. cap) ~ratio:0.9 trial in
  say "%s: capacity %.0f req/s; max_rps trials: %s" (workload_name sv) cap
    (String.concat " " (List.map (fun (r, ok) -> Printf.sprintf "%.0f%s" r (if ok then "+" else "-")) trials));
  best

(** The capacity from closed-loop blocks: their median. *)
let capacity slices = Pstats.median (Array.concat slices)

(* Each run starts the daemon several times and measures each instance
   on its own: where the host places the daemon's and the generator's
   threads is decided per instance and shifts every latency that
   instance sees, and other tenants only ever add to it. Each instance's
   window is cut into [subwindows] parts of [subwindow] requests, each
   long enough for a p99 with 10 samples beyond it. The run reports the
   lower quartile over the parts of all instances of their p50 and
   prints that of their p99 (see [tail_note]).

   The hypervisor now and then runs other tenants on this machine's CPUs
   for seconds at a time (steal time); the daemon, which needs both
   CPUs, then answers several times slower. A window or closed-loop
   burst during which more than [max_stolen] of the CPU time was stolen
   is flagged and left out, like a segment in which the generator fell
   behind; only if every one was flagged does the run fall back to all
   of them. *)
let subwindow = 1010

(** Daemon instances in a run of [seconds]: one instance of serve_cold
    takes about 4.8 s (start-up, a 1010-request window at 300 req/s, the
    closed-loop burst, shut-down). *)
let serve_instances ~seconds = max 2 (int_of_float (seconds /. 4.8))
let max_stolen = 0.03

(** Length of each instance's closed-loop burst, in seconds. *)
let burst_s = 1.2

(** The kept measurements, or all of them when every one was flagged. *)
let unless_all_flagged what ~kept ~flagged =
  if kept <> [] then kept
  else begin
    if flagged <> [] then say "every %s was flagged for steal time; all are used" what;
    flagged
  end

let serve_untraced ~hot ~seed ~seconds =
  let sv = new_serve ~hot ~seed in
  if hot then prefill sv;
  let segments = sv.spec.subwindows in
  let setups = ref [] and rss = ref [] in
  (* (p50, p99) per window part, capacity blocks per burst; kept and
     flagged for steal time *)
  let parts = ref [] and parts_stolen = ref [] and caps = ref [] and caps_stolen = ref [] in
  let stolen_windows = ref 0 and stolen_bursts = ref 0 in
  for _ = 1 to 5 do
    ignore (Calib.sample ())
  done;
  let host = ref (Calib.sample ()) in
  (* the host factor over what ran since the last kernel sample *)
  let factor () =
    let before = !host in
    host := Calib.sample ();
    Calib.factor ~before ~after:!host
  in
  let instances = serve_instances ~seconds in
  for _ = 1 to instances do
    (* serve_cold starts on an empty directory, serve_hot restarts over
       the prefilled one *)
    if not hot then rm_rf sv.cache_dir;
    settle_disk ();
    ignore (factor ());
    let d, c, dt = start_daemon sv in
    setups := dt /. factor () :: !setups;
    let st0 = D.stats c in
    let ticks = cpu_ticks () in
    let lats = fixed_window sv c ~n:(segments * subwindow) ~segments in
    let stolen = stolen_since ticks in
    let f = factor () in
    let into =
      if stolen > max_stolen then begin
        say "%s: %.1f%% of the CPU time was stolen during the window; left out"
          (workload_name sv) (100.0 *. stolen);
        incr stolen_windows;
        parts_stolen
      end
      else parts
    in
    List.iter
      (fun lat ->
        match Pstats.percentile 99.0 lat with
        | Some p99 -> into := (Pstats.median lat /. f, p99 /. f) :: !into
        | None -> ())
      lats;
    settle_disk ();
    ignore (factor ());
    let ticks = cpu_ticks () in
    let blocks = closed_loop c ~depth:16 ~seconds:burst_s ~src:(pick sv) in
    let stolen = stolen_since ticks in
    let f = factor () in
    let into =
      if stolen > max_stolen then begin
        say "%s: %.1f%% of the CPU time was stolen during the closed-loop burst; left out"
          (workload_name sv) (100.0 *. stolen);
        incr stolen_bursts;
        caps_stolen
      end
      else caps
    in
    into := Array.map (fun b -> b *. f) blocks :: !into;
    check_health (stat_deltas st0 (D.stats c));
    rss := D.peak_rss_mb d.D.pid :: !rss;
    D.shutdown d c
  done;
  let parts = unless_all_flagged "window" ~kept:!parts ~flagged:!parts_stolen in
  let caps = unless_all_flagged "closed-loop burst" ~kept:!caps ~flagged:!caps_stolen in
  if parts = [] then invalid "the generator fell behind its schedule in every instance";
  let p50s = List.map fst parts and p99s = List.map snd parts in
  let replay = run_child [ "--child"; workload_name sv; "--seed"; string_of_int seed ] in
  let f = int_of_float (num "failed" replay) in
  failed := !failed + f;
  wrong := !wrong + f;
  let alloc = num "alloc_kw" replay in
  check_repeat ~workload:(workload_name sv) ~seed (J.to_string replay);
  let show l = String.concat " " (List.rev_map (Printf.sprintf "%.4g") l) in
  say "%s per window part: p50 %s ms; p99 %s ms; capacity %s req/s" (workload_name sv) (show p50s)
    (show p99s) (show (List.map Pstats.median caps));
  say "%s: %d of %d windows and %d of %d closed-loop bursts flagged for steal time" (workload_name sv)
    !stolen_windows instances !stolen_bursts instances;
  say "%s: due-time p99 %.4f ms (lower quartile over window parts; printed only; see tail_note)"
    (workload_name sv) (lower_quartile p99s);
  [
    ("setup_s", lower_quartile !setups, "s");
    ("procs_per_s", capacity caps, "1/s");
    ("p50_ms", lower_quartile p50s, "ms");
    ("peak_rss_mb", Pstats.median (Array.of_list !rss), "MiB");
    ("alloc_kw_per_proc", alloc, "kw");
  ]

(** The traced serve run: untraced and traced daemon instances in turn
    (the traced daemon runs with runtime events on), two of each, since
    placement shifts each instance's latencies; then the layer replay. *)
let serve_traced ~hot ~seed ~seconds spans =
  let sv = new_serve ~hot ~seed in
  if hot then prefill sv;
  let w = 0.15 *. seconds in
  let n = int_of_float (sv.spec.rate *. w) in
  let env = [ "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ !workdir ] in
  let g = gc_create () in
  let cb = gc_callbacks g in
  let untraced = ref [] and traced = ref [] and deltas = ref [] and max_rps = ref 0.0 in
  let first_src = ref 0 in
  for i = 1 to 2 do
    if not hot then rm_rf sv.cache_dir;
    let d, c, _ = start_daemon sv in
    untraced := Pstats.median (Array.concat (fixed_window sv c ~n ~segments:4)) :: !untraced;
    if i = 1 then begin
      let cap = capacity [ closed_loop c ~depth:16 ~seconds:(0.05 *. seconds) ~src:(pick sv) ] in
      max_rps := max_rps_search sv c ~cap ~trial_s:(0.05 *. seconds)
    end;
    D.shutdown d c;
    if not hot then rm_rf sv.cache_dir;
    let d, c, _ = start_daemon ~env sv in
    let cursor = Runtime_events.create_cursor (Some (!workdir, d.D.pid)) in
    let last_poll = ref (now ()) in
    let on_poll () =
      if now () -. !last_poll > 0.02 then begin
        ignore (Runtime_events.read_poll cursor cb None);
        last_poll := now ()
      end
    in
    let st0 = D.stats c in
    first_src := sv.next_fresh;
    (* only the window's own events count, not the start-up's *)
    let minors, slices, pause, words = (g.minors, g.slices, g.pause_ns, g.alloc_words) in
    ignore (Runtime_events.read_poll cursor cb None);
    g.minors <- minors;
    g.slices <- slices;
    g.pause_ns <- pause;
    g.alloc_words <- words;
    let r = window c ~rate:sv.spec.rate ~n ~src:(pick sv) ~on_poll () in
    ignore (Runtime_events.read_poll cursor cb None);
    let st1 = D.stats c in
    let lat, _, _ = unflagged ~segments:4 ~p99_limit_ms:sv.spec.p99_limit_ms r in
    traced := Pstats.median (Array.concat lat) :: !traced;
    Runtime_events.free_cursor cursor;
    let ds = stat_deltas st0 st1 in
    check_health ds;
    deltas :=
      (match !deltas with
      | [] -> ds
      | acc -> List.map2 (fun (k, a) (_, b) -> (k, a +. b)) acc ds);
    D.shutdown d c
  done;
  let p50_u = Pstats.median (Array.of_list !untraced) in
  let p50_t = Pstats.median (Array.of_list !traced) in
  let first_src = !first_src and max_rps = !max_rps and deltas = !deltas in
  (* Replay: serve_cold replays the traced window's first sources into a
     fresh disk cache; serve_hot opens the daemon's own directory (with
     the daemon's build fingerprint) and replays pool sources twice,
     first from disk, then from memory. *)
  let m = 300 in
  let recover_dir, fingerprint, srcs =
    if hot then
      (sv.cache_dir, Some (Digest.to_hex (Digest.file (D.daemon_exe ()))), Array.sub sv.pool 0 (min m (Array.length sv.pool)))
    else (in_work "replay-cache", None, Array.init m (fun i -> Hlgen.make ~seed (first_src + i)))
  in
  let cache =
    Spans.record spans ~req:(-1) "vc_cache.recover" (fun _ ->
        E.Vc_cache.create ~disk_dir:recover_dir ?fingerprint ())
  in
  let recover_ms = Spans.duration (Spans.last spans) *. 1000.0 in
  let rp = new_replay ~spans cache in
  let lines = Array.map (request_line ~id:0) srcs in
  let rounds = if hot then 2 else 3 in
  for round = 0 to 1 do
    Array.iteri (fun i s -> replay_request rp ~req:((round * m) + i) s lines.(i)) srcs
  done;
  (* serve_cold: the sources went to disk in the first round and came
     from memory in the second; a second cache recovers the populated
     directory and serves them from disk *)
  let recover_ms, hit_diags =
    if hot then (recover_ms, 0)
    else begin
      let cache =
        Spans.record spans ~req:(-1) "vc_cache.recover" (fun _ ->
            E.Vc_cache.create ~disk_dir:recover_dir ())
      in
      let recover_ms = Spans.duration (Spans.last spans) *. 1000.0 in
      let rp = new_replay ~spans cache in
      Array.iteri (fun i s -> replay_request rp ~req:((2 * m) + i) s lines.(i)) srcs;
      (recover_ms, rp.diags)
    end
  in
  rp.diags <- rp.diags + hit_diags;
  let med name = match Spans.named spans name with
    | [] -> 0.0
    | l -> Pstats.median (Array.of_list (List.map (fun s -> Spans.duration s *. 1e6) l))
  in
  let path =
    [ "server.protocol.decode"; "heaplang.parse"; "verifier.elab"; "analysis.lint"; "server.render.encode" ]
    @ if hot then [ "vc_cache.hit_mem" ] else [ "vc_cache.lookup_miss"; "verifier.verify"; "vc_cache.store" ]
  in
  let layers_us = List.fold_left (fun acc k -> acc +. med k) 0.0 path in
  let residual = (p50_u *. 1000.0) -. layers_us in
  let reqs = float_of_int (rounds * m) in
  let verified = float_of_int (if hot then 0 else m) in
  let verify_ms_total =
    List.fold_left (fun acc s -> acc +. (Spans.duration s *. 1000.0)) 0.0 (Spans.named spans "verifier.verify")
  in
  let solve_ms = rp.ss.Smt.Stats.solve_ms in
  check_solve_ms rp.ss ~verify_ms:verify_ms_total;
  let per_proc v = if verified = 0.0 then 0.0 else v /. verified in
  ( [
      ("heaplang.parse_us", med "heaplang.parse", "us");
      ("verifier.elab_us", med "verifier.elab", "us");
      ("analysis.lint_us", med "analysis.lint", "us");
      ("analysis.diags", float_of_int rp.diags /. reqs, "count");
      ("verifier.verify_us", med "verifier.verify", "us");
      ("smt.solve_ms_reported", per_proc solve_ms, "ms");
      ("smt.verify_ms_measured", per_proc verify_ms_total, "ms");
      ("vc_cache.lookup_miss_us", med "vc_cache.lookup_miss", "us");
      ("vc_cache.store_us", med "vc_cache.store", "us");
      ("vc_cache.hit_mem_us", med "vc_cache.hit_mem", "us");
      ("vc_cache.hit_disk_us", med "vc_cache.hit_disk", "us");
      ("vc_cache.recover_ms", recover_ms, "ms");
      ("server.protocol.decode_us", med "server.protocol.decode", "us");
      ("server.render.encode_us", med "server.render.encode", "us");
      ("server.daemon.residual_us", residual, "us");
      ("server.max_rps", max_rps, "1/s");
      ("trace.untraced_ms", p50_u, "ms");
      ("trace.traced_ms", p50_t, "ms");
      ("trace.overhead_pct", 100.0 *. (p50_t -. p50_u) /. p50_u, "%");
      ("trace.unattributed_pct", 100.0 *. residual /. (p50_u *. 1000.0), "%");
    ]
    @ List.map (fun (k, v) -> (k, per_proc v, "count")) (vcounts rp.vs rp.ss)
    @ List.map (fun (k, v) -> (k, v, "count")) deltas
    @ runtime_metrics g ~ops:(2 * n),
    g.lost )

(* ------------------------------------------------------------------ *)
(* Metric sets *)

let per_layer =
  [
    ("heaplang.parse_us", "us"); ("verifier.elab_us", "us"); ("analysis.lint_us", "us");
    ("analysis.diags", "count"); ("verifier.verify_us", "us"); ("verifier.obligations", "count");
    ("verifier.chunk_matches", "count"); ("verifier.absint_discharged", "count");
    ("smt.queries", "count"); ("smt.session_checks", "count"); ("smt.session_fallbacks", "count");
    ("smt.theory_checks", "count"); ("smt.lia_checks", "count"); ("smt.sat_conflicts", "count");
    ("smt.solve_ms_reported", "ms"); ("smt.verify_ms_measured", "ms"); ("engine.stitch_ms", "ms");
    ("vc_cache.lookup_miss_us", "us"); ("vc_cache.store_us", "us"); ("vc_cache.hit_mem_us", "us");
    ("vc_cache.hit_disk_us", "us"); ("vc_cache.recover_ms", "ms");
    ("server.protocol.decode_us", "us"); ("server.render.encode_us", "us");
    ("server.daemon.residual_us", "us"); ("server.max_rps", "1/s");
  ]
  @ List.map (fun (k, _) -> (k, "count")) stat_paths
  @ [
      ("runtime.gc_pause_ms", "ms"); ("runtime.minor_collections", "count");
      ("runtime.major_slices", "count"); ("runtime.alloc_words", "words");
      ("trace.untraced_ms", "ms"); ("trace.traced_ms", "ms"); ("trace.overhead_pct", "%");
      ("trace.unattributed_pct", "%"); ("crosscheck.disagreements", "count");
    ]

(** Every per-layer metric, with 0 for the layers a workload never
    reaches. *)
let complete_per_layer measured =
  List.map
    (fun (k, u) ->
      match List.find_opt (fun (k', _, _) -> String.equal k k') measured with
      | Some (_, v, u') -> { Report.name = k; value = v; unit_ = u' }
      | None -> { Report.name = k; value = 0.0; unit_ = u })
    per_layer

(* ------------------------------------------------------------------ *)
(* Entry point *)

let workloads = [ "corpus"; "serve_cold"; "serve_hot" ]

let main ~workload ~seed ~seconds ~trace =
  setup_workdir ();
  let host = host_facts () in
  say "host: %s" (J.to_string (J.Obj host));
  let metrics =
    if trace = 0 then begin
      let m =
        match workload with
        | "corpus" -> corpus_untraced ~seed ~seconds
        | w -> serve_untraced ~hot:(w = "serve_hot") ~seed ~seconds
      in
      List.map (fun (k, v, u) -> { Report.name = k; value = v; unit_ = u }) m
    end
    else begin
      let spans = Spans.create () in
      let measured, lost =
        match workload with
        | "corpus" -> corpus_traced ~seed ~seconds spans
        | w -> serve_traced ~hot:(w = "serve_hot") ~seed ~seconds spans
      in
      let ds = List.rev !disagreements in
      List.iter (fun d -> say "disagreement: %s" d) ds;
      if lost > 0 then say "runtime events lost: %d" lost;
      let metrics =
        complete_per_layer (("crosscheck.disagreements", float_of_int (List.length ds), "count") :: measured)
      in
      let path = Filename.concat state_dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("workload", J.Str workload);
                    ("seed", J.Num (float_of_int seed));
                    ("host", J.Obj host);
                    ("disagreements", J.List (List.map (fun d -> J.Str d) ds));
                    ( "metrics",
                      J.Obj (List.map (fun m -> (m.Report.name, Report.number m.Report.value)) metrics) );
                    ("spans", Spans.to_json spans);
                  ]));
          output_char oc '\n');
      say "trace written to %s" path;
      metrics
    end
  in
  List.iter
    (fun m ->
      if not (Float.is_finite m.Report.value) then invalid "metric %s is not a number" m.Report.name;
      say "%s %s = %.6g %s" workload m.Report.name m.Report.value m.Report.unit_)
    metrics;
  let correct = !wrong = 0 && !failed = 0 in
  print_endline (Report.result_line ~correct ~attempted:(max 1 !attempted) ~failed:!failed metrics);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let child = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time of one run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--child", Arg.Set_string child, " (internal) run one corpus process or serve replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !child with
  | "corpus" -> corpus_child ~seed:!seed ~seconds:!seconds
  | ("serve_cold" | "serve_hot") as w -> replay_child ~hot:(w = "serve_hot") ~seed:!seed
  | _ -> (
      if not (List.mem !workload workloads) then begin
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
      end;
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "perfbench: --trace takes 0 or 1";
        exit 2
      end;
      try main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace with
      | Invalid m ->
          prerr_endline ("perfbench: invalid run: " ^ m);
          exit 1
      | Failure m ->
          prerr_endline ("perfbench: " ^ m);
          exit 1
      | D.Closed ->
          prerr_endline "perfbench: the daemon closed the connection";
          exit 1)
