(** Verifier tests: the whole suite verifies, negative entries are
    rejected, the heap-dependence toggle behaves, mutations invalidate
    stale facts, and generated workloads verify at several sizes. *)

module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module St = Verifier.State
open Stdx

let sym x = HL.Val (HL.Sym x)
let pt ?frac l v = A.points_to ?frac (T.var l) v

let all_verified prog =
  List.for_all (fun (_, o) -> o = V.Verified) (V.verify prog)

let entry name =
  match Suite.Programs.find name with
  | Some e -> e
  | None -> Alcotest.failf "no suite entry %s" name

let main_proc name =
  let e = entry name in
  List.find (fun (p : V.proc) -> String.equal p.V.pname e.main) e.prog.V.procs

let list_preds () = (entry "list_length").prog.V.preds

let outcome = Alcotest.testable V.pp_outcome ( = )

(* Why each negative entry fails: the exact message of its one
   procedure, so an entry cannot start failing for another reason. *)
let failure_messages =
  [
    ("bad_swap", "points-to l: cannot prove value a = b");
    ("bad_leak", "load: no permission for l");
    ("bad_unstable", "cannot prove ((v0 + 1) = v0)");
    ("bad_double_free", "no full-permission chunk for l");
    ("bad_half_write", "no full-permission chunk for l");
    ("racy_incr", "load: no permission for x");
    ("lock_noinv", "no full-permission chunk for lck");
  ]

let suite_cases =
  List.map
    (fun (e : Suite.Programs.entry) ->
      Alcotest.test_case e.name `Quick (fun () ->
          if e.expect_fail then
            match List.assoc_opt e.name failure_messages with
            | Some m ->
                Alcotest.(check (list (pair string outcome)))
                  (e.name ^ " fails for its reason")
                  [ (e.main, V.Failed m) ]
                  (V.verify e.prog)
            | None -> Alcotest.failf "%s: no expected failure message" e.name
          else Alcotest.(check bool) (e.name ^ " verifies") true (all_verified e.prog)))
    (Suite.Programs.all ())

let stable_variant_cases =
  List.filter_map
    (fun (e : Suite.Programs.entry) ->
      Option.map
        (fun sv ->
          Alcotest.test_case (e.name ^ "-stable") `Quick (fun () ->
              Alcotest.(check bool) "stable variant verifies" true
                (all_verified sv)))
        e.stable_variant)
    (Suite.Programs.all ())

(* The certified baselines are derived from the parsed entries (main
   procedure's triple and body, count's loop annotation from its
   stable variant). Each must prove in the kernel with exactly the
   rule count of the hand-written tasks it replaced, so a change to a
   source file or to the derivation that alters a proof shows here. *)
let baseline_rules =
  [
    ("swap", 93);
    ("count", 196);
    ("max3", 121);
    ("clamp", 169);
    ("faa_counter", 47);
    ("lifecycle", 102);
    ("shared_read", 74);
  ]

let baseline_cases =
  List.map
    (fun (name, rules) ->
      Alcotest.test_case name `Quick (fun () ->
          match (entry name).baseline with
          | None -> Alcotest.failf "%s has no baseline" name
          | Some b ->
              Baselogic.Kernel.reset_rule_count ();
              (match
                 Proofmode.Prove.prove_triple ~invariants:b.b_invs
                   ~pre:b.b_pre b.b_body "result" b.b_post
               with
              | _ -> ()
              | exception Proofmode.Prove.Tactic_error m ->
                  Alcotest.failf "%s: %s" name m);
              Alcotest.(check int) "kernel rules" rules
                (Baselogic.Kernel.rule_count ())))
    baseline_rules
  @ [
      Alcotest.test_case "no-other-baselines" `Quick (fun () ->
          Alcotest.(check (list string))
            "entries with a baseline" (List.map fst baseline_rules)
            (List.filter_map
               (fun (e : Suite.Programs.entry) ->
                 Option.map (fun _ -> e.name) e.baseline)
               (Suite.Programs.all ())));
    ]

(* Session vs one-shot: routing every obligation through the cached
   one-shot pipeline (the pre-session verifier) must produce verdicts
   bit-identical to the incremental sessions, on positive and
   expect_fail entries alike — including the failure messages. *)
let test_session_oneshot_identical () =
  List.iter
    (fun (e : Suite.Programs.entry) ->
      let incremental = V.verify e.prog in
      Smt.Session.oneshot := true;
      let oneshot =
        Fun.protect
          ~finally:(fun () -> Smt.Session.oneshot := false)
          (fun () -> V.verify e.prog)
      in
      Alcotest.(check bool)
        (e.name ^ ": session ≡ one-shot")
        true
        (incremental = oneshot))
    (Suite.Programs.all ())

let test_heap_dep_toggle () =
  (* The hd spec must be rejected with heap_dep:false, and the stable
     variant must still pass. *)
  let e = entry "count" in
  let hd_off =
    List.for_all (fun (_, o) -> o = V.Verified)
      (V.verify ~heap_dep:false e.Suite.Programs.prog)
  in
  Alcotest.(check bool) "hd spec rejected with toggle off" false hd_off;
  match e.Suite.Programs.stable_variant with
  | Some sv ->
      let ok =
        List.for_all (fun (_, o) -> o = V.Verified) (V.verify ~heap_dep:false sv)
      in
      Alcotest.(check bool) "stable variant immune to toggle" true ok
  | None -> Alcotest.fail "count has a stable variant"

(* State-level unit tests *)

let test_inhale_consume () =
  let st = St.create () in
  let a = A.seps [ pt "l" (T.var "v"); A.Pure (T.le (T.int 0) (T.var "v")) ] in
  let st = St.inhale st a in
  Alcotest.(check int) "one chunk" 1 (List.length st.St.chunks);
  let st' = St.consume st (pt "l" (T.var "v")) in
  Alcotest.(check int) "chunk consumed" 0 (List.length st'.St.chunks);
  (match St.consume st' (pt "l" (T.var "v")) with
  | _ -> Alcotest.fail "double consume must fail"
  | exception St.Verification_error _ -> ());
  (* fraction splitting *)
  let st = St.inhale (St.create ()) (pt "l" (T.var "v")) in
  let st = St.consume st (pt ~frac:Q.half "l" (T.var "v")) in
  Alcotest.(check int) "half left" 1 (List.length st.St.chunks);
  ignore (St.consume st (pt ~frac:Q.half "l" (T.var "v")))

let test_resolution () =
  let st = St.create () in
  let st = St.inhale st (pt "l" (T.var "v")) in
  let phi = T.le (Baselogic.Hterm.deref (T.var "l")) (T.int 5) in
  let resolved = St.resolve st phi in
  Alcotest.(check bool) "read resolved" false
    (Baselogic.Hterm.heap_dependent resolved);
  (* read without permission *)
  let st0 = St.create () in
  match St.resolve st0 phi with
  | _ -> Alcotest.fail "must fail without permission"
  | exception St.Verification_error _ -> ()

let test_mutation_invalidates () =
  (* This is the destabilization property end-to-end: a spec carrying
     ⌜!l = v0⌝ past a store of a different value must fail, and the
     corrected spec must pass. *)
  let body = HL.Store (sym "l", HL.Val (HL.Int 9)) in
  let stale =
    {
      V.pname = "stale";
      params = [ "l"; "v0" ];
      requires =
        A.Sep (pt "l" (T.var "v0"),
               A.Pure (T.eq (Baselogic.Hterm.deref (T.var "l")) (T.var "v0")));
      ensures =
        A.Sep (A.Exists ("w", pt "l" (T.var "w")),
               A.Pure (T.eq (Baselogic.Hterm.deref (T.var "l")) (T.var "v0")));
      body;
      invariants = [];
      ghost = [];
    }
  in
  let fixed =
    {
      stale with
      V.pname = "fixed";
      ensures =
        A.Sep (A.Exists ("w", pt "l" (T.var "w")),
               A.Pure (T.eq (Baselogic.Hterm.deref (T.var "l")) (T.int 9)));
    }
  in
  let prog = { V.procs = [ stale; fixed ]; preds = Smap.empty; invs = [] } in
  (match V.verify_proc prog stale with
  | V.Failed _ -> ()
  | o -> Alcotest.failf "stale heap fact must not survive a store: %a" V.pp_outcome o);
  match V.verify_proc prog fixed with
  | V.Verified -> ()
  | o -> Alcotest.failf "fixed spec must verify: %a" V.pp_outcome o

let test_generated_sizes () =
  List.iter
    (fun n ->
      let p, _ = Suite.Generators.straightline n in
      match V.verify_proc { V.procs = [ p ]; preds = Smap.empty; invs = [] } p with
      | V.Verified -> ()
      | o -> Alcotest.failf "straightline %d: %a" n V.pp_outcome o)
    [ 1; 3; 7 ];
  List.iter
    (fun k ->
      let p = Suite.Generators.multicell k in
      match V.verify_proc { V.procs = [ p ]; preds = Smap.empty; invs = [] } p with
      | V.Verified -> ()
      | o -> Alcotest.failf "multicell %d: %a" k V.pp_outcome o)
    [ 1; 3; 5 ]

(* Mutated suite programs must fail: spec fuzzing. *)
let test_spec_mutations () =
  let weaken_requires (p : V.proc) = { p with V.requires = A.Emp } in
  List.iter
    (fun (name, proc, preds) ->
      let mutant = weaken_requires proc in
      let prog = { V.procs = [ mutant ]; preds; invs = [] } in
      match V.verify_proc prog mutant with
      | V.Failed _ -> ()
      | V.Verified ->
          (* Some programs survive (pure ones with Emp pre already);
             heap-manipulating ones must not. *)
          Alcotest.failf "%s verified without its precondition!" name
      | o -> Alcotest.failf "%s: unexpected outcome %a" name V.pp_outcome o)
    [
      ("swap", main_proc "swap", Smap.empty);
      ("length", main_proc "list_length", list_preds ());
      ("faa", main_proc "faa_counter", Smap.empty);
    ]

(* Verify-then-run: a verified program runs without fault and its
   observable result matches the spec on concrete inputs. *)
let test_verify_then_run () =
  (* count with i=#0 initialized to 0 and n = 5 must return 5. *)
  let e =
    HL.Let ("i0", HL.Alloc (HL.Val (HL.Int 0)),
      Heaplang.Subst.close_expr [ ("n", HL.Int 5) ]
        (HL.Let ("tmp", HL.Val (HL.Sym "dummy"), HL.Val HL.Unit)))
  in
  ignore e;
  let body = (main_proc "count").V.body in
  let closed = Heaplang.Subst.close_expr [ ("i", HL.Loc 0); ("n", HL.Int 5) ] body in
  let setup = HL.Seq (HL.Alloc (HL.Val (HL.Int 0)), closed) in
  match Heaplang.Interp.run setup with
  | Heaplang.Interp.Value (HL.Int 5) -> ()
  | r ->
      Alcotest.failf "count ran wrong: %s"
        (match r with
        | Heaplang.Interp.Value v -> Fmt.str "%a" HL.pp_value v
        | Heaplang.Interp.Error m -> m
        | Heaplang.Interp.Timeout -> "timeout")

(* Ghost commands: unit tests. *)
let test_ghost_cmds () =
  let prog = { V.procs = []; preds = list_preds (); invs = [] } in
  let st = St.create ~penv:prog.V.preds () in
  (* fold nil: p = -1, n = 0 *)
  let st =
    St.add_pure (St.add_pure st (T.eq (T.var "p") (T.int (-1))))
      (T.eq (T.var "n") (T.int 0))
  in
  let sts = V.exec_ghost prog st (V.Fold ("clist", [ T.var "p"; T.var "n" ])) in
  (match sts with
  | [ st' ] ->
      Alcotest.(check int) "pred chunk" 1 (List.length st'.St.chunks)
  | _ -> Alcotest.fail "fold yields one state");
  (* ghost alloc + update on MaxNat *)
  let st = St.create () in
  let sts = V.exec_ghost prog st (V.GAlloc ("γ", GV.Max_nat (T.int 1))) in
  match sts with
  | [ st ] -> (
      let sts =
        V.exec_ghost prog st
          (V.Update ("γ", GV.Max_nat (T.int 1), GV.Max_nat (T.int 5)))
      in
      match sts with
      | [ st ] -> (
          (* downgrade must fail *)
          match
            V.exec_ghost prog st
              (V.Update ("γ", GV.Max_nat (T.int 5), GV.Max_nat (T.int 2)))
          with
          | _ -> Alcotest.fail "monotone downgrade must fail"
          | exception St.Verification_error _ -> ())
      | _ -> Alcotest.fail "update yields one state")
  | _ -> Alcotest.fail "alloc yields one state"

(* Regression: a predicate whose body is unstable at declaration must
   be rejected before any symbolic execution — [Assertion.stable]'s
   [Pred _ -> true] case is only sound because [State.create] enforces
   stability of every definition (DA012). *)
let test_unstable_pred_decl () =
  let shaky =
    {
      A.pname = "shaky";
      params = [ "p" ];
      body = A.Pure (T.eq (Baselogic.Hterm.deref (T.var "p")) (T.int 0));
    }
  in
  let preds = Smap.of_list [ ("shaky", shaky) ] in
  let user =
    {
      V.pname = "user";
      params = [ "p" ];
      requires = A.Pred ("shaky", [ T.var "p" ]);
      ensures = A.Emp;
      body = HL.Val HL.Unit;
      invariants = [];
      ghost = [];
    }
  in
  (match V.verify_proc { V.procs = [ user ]; preds; invs = [] } user with
  | V.Verified -> Alcotest.fail "unstable predicate body must be rejected"
  | (V.Timeout _ | V.Resource_out _ | V.Crashed _) as o ->
      Alcotest.failf "unstable predicate: unexpected outcome %a" V.pp_outcome o
  | V.Failed m ->
      let mentions_da012 =
        let n = String.length m in
        let rec go i = i + 5 <= n && (String.sub m i 5 = "DA012" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "failure names DA012" true mentions_da012);
  (* the stable clist definitions still load fine *)
  ignore (St.create ~penv:(list_preds ()) ())

(* Scheduler permutation: verdicts are independent of [--seed]. The
   symbolic executor verifies every par branch under every schedule —
   the seed only permutes exploration order — so positives stay
   verified and negatives keep failing, message for message. *)
let test_seed_independence () =
  List.iter
    (fun name ->
      let e = entry name in
      let base = V.verify e.prog in
      List.iter
        (fun seed ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: seed %d ≡ seed 0" name seed)
            true
            (V.verify ~seed e.prog = base))
        [ 1; 2; 3 ])
    [ "spinlock"; "ticket_lock"; "treiber"; "racy_incr"; "lock_noinv" ]

(* The runtime side of DA026: a nested atomic section is rejected by
   the symbolic executor itself (mask discipline), not only by the
   static analyzer. *)
let test_nested_atomic_exec () =
  let c =
    match
      List.find_opt
        (fun (c : Suite.Ill_formed.case) ->
          String.equal c.Suite.Ill_formed.name "nested_atomic")
        Suite.Ill_formed.all
    with
    | Some c -> c
    | None -> Alcotest.fail "no ill-formed case nested_atomic"
  in
  match V.verify c.Suite.Ill_formed.prog with
  | [ (_, V.Failed m) ] ->
      let mentions_da026 =
        let n = String.length m in
        let rec go i = i + 5 <= n && (String.sub m i 5 = "DA026" || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "failure names DA026" true mentions_da026
  | os ->
      Alcotest.failf "nested atomic: expected one failure, got %a"
        Fmt.(list ~sep:sp (pair string V.pp_outcome))
        os

let () =
  Alcotest.run "verifier"
    [
      ("suite", suite_cases);
      ("stable-variants", stable_variant_cases);
      ("baselines", baseline_cases);
      ( "sessions",
        [
          Alcotest.test_case "session-oneshot-identical" `Quick
            test_session_oneshot_identical;
        ] );
      ( "destabilization",
        [
          Alcotest.test_case "heap-dep-toggle" `Quick test_heap_dep_toggle;
          Alcotest.test_case "mutation-invalidates" `Quick
            test_mutation_invalidates;
          Alcotest.test_case "resolution" `Quick test_resolution;
        ] );
      ( "state",
        [
          Alcotest.test_case "inhale-consume" `Quick test_inhale_consume;
          Alcotest.test_case "ghost-cmds" `Quick test_ghost_cmds;
          Alcotest.test_case "unstable-pred-decl" `Quick
            test_unstable_pred_decl;
        ] );
      ( "integration",
        [
          Alcotest.test_case "generated-sizes" `Quick test_generated_sizes;
          Alcotest.test_case "spec-mutations" `Quick test_spec_mutations;
          Alcotest.test_case "verify-then-run" `Quick test_verify_then_run;
          Alcotest.test_case "seed-independence" `Quick
            test_seed_independence;
          Alcotest.test_case "nested-atomic-exec" `Quick
            test_nested_atomic_exec;
        ] );
    ]
