(** The negative suite for the static analyzer: deliberately ill-formed
    programs, each annotated with the diagnostic codes the analyzer
    must produce for it ([daenerys lint --ill-formed] and
    [test_analysis] check exactly that).

    These are *lint*-negative — malformed before any semantic question
    arises — unlike the negative entries of {!Programs}, which are
    well-formed programs with wrong specifications that only the
    solver can reject. *)

open Stdx
module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module HT = Baselogic.Hterm
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec

type case = {
  name : string;
  descr : string;
  prog : V.program;
  codes : string list;  (** codes that must each appear at least once *)
}

let pt l v = A.points_to (T.var l) v
let deref l = HT.deref (T.var l)
let sym x = HL.Val (HL.Sym x)

let proc ?(params = []) ?(requires = A.Emp) ?(ensures = A.Emp)
    ?(body = HL.Val HL.Unit) ?(invariants = []) ?(ghost = []) pname =
  { V.pname; params; requires; ensures; body; invariants; ghost }

let one ?(preds = Smap.empty) ?(invs = []) p = { V.procs = [ p ]; preds; invs }

let case ~descr ~codes name prog = { name; descr; prog; codes }

(* A well-formed predicate to mis-reference. *)
let cell_def =
  { A.pname = "cell"; params = [ "p"; "v" ]; body = pt "p" (T.var "v") }

let cell_preds = Smap.of_list [ ("cell", cell_def) ]

let unknown_pred =
  case ~descr:"requires references a predicate nobody declared"
    ~codes:[ "DA001" ] "unknown_pred"
    (one
       (proc ~params:[ "p" ]
          ~requires:(A.Pred ("nolist", [ T.var "p" ]))
          "unknown_pred"))

let pred_arity =
  case ~descr:"cell/2 applied to one argument" ~codes:[ "DA002" ]
    "pred_arity"
    (one ~preds:cell_preds
       (proc ~params:[ "p" ]
          ~requires:(A.Pred ("cell", [ T.var "p" ]))
          "pred_arity"))

let unknown_proc =
  case ~descr:"calls a procedure that does not exist" ~codes:[ "DA003" ]
    "unknown_proc"
    (one (proc ~body:(HL.App (HL.Var "nosuch", HL.Val (HL.Int 1))) "caller"))

let call_arity =
  case ~descr:"two-parameter callee called with one argument"
    ~codes:[ "DA004" ] "call_arity"
    {
      V.procs =
        [
          proc ~params:[ "a"; "b" ] "callee";
          proc ~body:(HL.App (HL.Var "callee", HL.Val (HL.Int 1))) "caller";
        ];
      preds = Smap.empty;
      invs = [];
    }

let unbound_var =
  case ~descr:"requires mentions a logical variable that is no parameter"
    ~codes:[ "DA005" ] "unbound_var"
    (one (proc ~requires:(A.Pure (T.eq (T.var "x") (T.int 0))) "unbound_var"))

let result_in_requires =
  case ~descr:"`result` used in a requires clause" ~codes:[ "DA006" ]
    "result_in_requires"
    (one
       (proc ~requires:(A.Pure (T.eq (T.var "result") (T.int 0)))
          "result_in_requires"))

let undeclared_ghost =
  case ~descr:"ghost update over a name never owned or allocated"
    ~codes:[ "DA007" ] "undeclared_ghost"
    (one
       (proc ~body:(HL.GhostMark "bump")
          ~ghost:
            [
              ( "bump",
                [
                  V.Update
                    ("γ", GV.Max_nat (T.int 0), GV.Max_nat (T.int 1));
                ] );
            ]
          "undeclared_ghost"))

let while_no_inv =
  case ~descr:"while loop with no invariant annotation" ~codes:[ "DA008" ]
    "while_no_inv"
    (one
       (proc
          ~body:(HL.While (HL.Val (HL.Bool false), HL.Val HL.Unit))
          "while_no_inv"))

let ghost_mark_missing =
  case ~descr:"ghost mark with no command block" ~codes:[ "DA009" ]
    "ghost_mark_missing"
    (one (proc ~body:(HL.GhostMark "nothing_here") "ghost_mark_missing"))

let unbound_sym =
  case ~descr:"body reads through a symbol that is no parameter"
    ~codes:[ "DA010" ] "unbound_sym"
    (one (proc ~body:(HL.Load (sym "l")) "unbound_sym"))

let unstable_spec =
  case
    ~descr:"requires reads !l with no points-to footprint anywhere"
    ~codes:[ "DA011"; "DA013" ] "unstable_spec"
    (one
       (proc ~params:[ "l" ]
          ~requires:(A.Pure (T.eq (deref "l") (T.int 5)))
          "unstable_spec"))

let unstable_pred =
  case ~descr:"predicate body unstable at declaration" ~codes:[ "DA012" ]
    "unstable_pred"
    (one
       ~preds:
         (Smap.of_list
            [
              ( "shaky",
                {
                  A.pname = "shaky";
                  params = [ "p" ];
                  body = A.Pure (T.eq (deref "p") (T.int 0));
                } );
            ])
       (proc "unstable_pred"))

let uncovered_read =
  case
    ~descr:
      "⌊⌜!l = 5⌝⌋ is stable by construction yet no chunk can resolve \
       the read"
    ~codes:[ "DA013" ] "uncovered_read"
    (one
       (proc ~params:[ "l" ]
          ~requires:(A.Stabilize (A.Pure (T.eq (deref "l") (T.int 5))))
          "uncovered_read"))

let fragment_expr =
  case ~descr:"pair construction in verified code" ~codes:[ "DA014" ]
    "fragment_expr"
    (one
       (proc ~body:(HL.PairE (HL.Val (HL.Int 1), HL.Val (HL.Int 2)))
          "fragment_expr"))

let fragment_assert =
  case ~descr:"magic wand in a spec" ~codes:[ "DA015" ] "fragment_assert"
    (one (proc ~requires:(A.Wand (A.Emp, A.Emp)) "fragment_assert"))

let dangling_inv =
  let stray = HL.While (HL.Val (HL.Bool false), HL.Val HL.Unit) in
  case ~descr:"invariant annotation attached to no loop in the body"
    ~codes:[ "DA016" ] "dangling_inv"
    (one (proc ~invariants:[ (stray, A.Emp) ] "dangling_inv"))

let unused_ghost_block =
  case ~descr:"ghost command block never referenced by the body"
    ~codes:[ "DA017" ] "unused_ghost_block"
    (one
       (proc ~ghost:[ ("orphan", [ V.AssertA A.Emp ]) ] "unused_ghost_block"))

(* --------------------------------------------------------------- *)
(* DA018–DA025: the abstract-interpretation pass (lib/analysis/absint) *)

let div_by_zero =
  case ~descr:"divisor is the literal 0 on every path" ~codes:[ "DA018" ]
    "div_by_zero"
    (one
       (proc
          ~body:(HL.BinOp (HL.Div, HL.Val (HL.Int 1), HL.Val (HL.Int 0)))
          "div_by_zero"))

let dead_branch =
  case ~descr:"then-branch guarded by 1 < 0, dead in every state"
    ~codes:[ "DA019" ] "dead_branch"
    (one
       (proc
          ~body:
            (HL.If
               ( HL.BinOp (HL.Lt, HL.Val (HL.Int 1), HL.Val (HL.Int 0)),
                 HL.Val (HL.Int 1),
                 HL.Val (HL.Int 2) ))
          "dead_branch"))

let contradictory_requires =
  case ~descr:"requires demands n < n; no caller can ever satisfy it"
    ~codes:[ "DA020" ] "contradictory_requires"
    (one
       (proc ~params:[ "n" ]
          ~requires:(A.Pure (T.lt (T.var "n") (T.var "n")))
          "contradictory_requires"))

let false_ensures =
  case ~descr:"ensures claims 0 = 1; the body can never verify against it"
    ~codes:[ "DA021" ] "false_ensures"
    (one (proc ~ensures:(A.Pure (T.eq (T.int 0) (T.int 1))) "false_ensures"))

let inv_not_inductive =
  (* invariant pins !l to 0 while the body increments it: one abstract
     iteration refutes the re-established value *)
  let guard = HL.BinOp (HL.Lt, HL.Load (sym "l"), HL.Val (HL.Int 10)) in
  let body =
    HL.Store
      (sym "l", HL.BinOp (HL.Add, HL.Load (sym "l"), HL.Val (HL.Int 1)))
  in
  let w = HL.While (guard, body) in
  case ~descr:"loop invariant l ↦ 0 is not preserved by l <- !l + 1"
    ~codes:[ "DA022" ] "inv_not_inductive"
    (one
       (proc ~params:[ "l" ]
          ~requires:(pt "l" (T.int 0))
          ~invariants:[ (w, pt "l" (T.int 0)) ]
          ~body:w "inv_not_inductive"))

let redundant_stabilize =
  case ~descr:"⌊·⌋ around a points-to, which is already stable"
    ~codes:[ "DA023" ] "redundant_stabilize"
    (one
       (proc ~params:[ "l" ]
          ~requires:(A.Stabilize (pt "l" (T.int 0)))
          "redundant_stabilize"))

let unused_param =
  case ~descr:"parameter x appears in no clause and no body expression"
    ~codes:[ "DA024" ] "unused_param"
    (one (proc ~params:[ "x" ] "unused_param"))

let no_variant =
  (* a perfectly fine loop — the only finding is the missing
     termination hint *)
  let guard = HL.BinOp (HL.Lt, HL.Load (sym "l"), HL.Val (HL.Int 10)) in
  let body =
    HL.Store
      (sym "l", HL.BinOp (HL.Add, HL.Load (sym "l"), HL.Val (HL.Int 1)))
  in
  let w = HL.While (guard, body) in
  case ~descr:"while loop with no variant/decreases hint" ~codes:[ "DA025" ]
    "no_variant"
    (one
       (proc ~params:[ "l" ]
          ~requires:(A.Exists ("v", pt "l" (T.var "v")))
          ~invariants:[ (w, A.Exists ("v", pt "l" (T.var "v"))) ]
          ~body:w "no_variant"))

(* ------------------------------------------------------------------ *)
(* Concurrency: DA026–DA028 *)

let nested_atomic =
  case ~descr:"atomic section nested inside another (invariant reentrancy)"
    ~codes:[ "DA026" ] "nested_atomic"
    (one
       ~invs:[ ("cell", A.Exists ("v", pt "x" (T.var "v"))) ]
       (proc ~params:[ "x" ]
          ~body:(HL.Atomic (HL.Atomic (HL.Load (sym "x"))))
          "nested_atomic"))

let racy_par_branch =
  case
    ~descr:
      "par branch touches the invariant-governed cell with no atomic \
       section in the branch"
    ~codes:[ "DA027" ] "racy_par_branch"
    (one
       ~invs:[ ("cell", A.Exists ("v", pt "x" (T.var "v"))) ]
       (proc ~params:[ "x" ]
          ~body:
            (HL.Par
               ( HL.Store
                   ( sym "x",
                     HL.BinOp
                       (HL.Add, HL.Load (sym "x"), HL.Val (HL.Int 1)) ),
                 HL.Atomic (HL.Load (sym "x")) ))
          "racy_par_branch"))

let unstable_inv =
  case
    ~descr:"invariant body reads the heap outside its own footprint"
    ~codes:[ "DA028" ] "unstable_inv"
    (one
       ~invs:[ ("bad", A.Pure (T.eq (deref "x") (T.int 0))) ]
       (proc ~params:[ "x" ]
          ~body:(HL.Atomic (HL.Load (sym "x")))
          "unstable_inv"))

let all : case list =
  [
    unknown_pred;
    pred_arity;
    unknown_proc;
    call_arity;
    unbound_var;
    result_in_requires;
    undeclared_ghost;
    while_no_inv;
    ghost_mark_missing;
    unbound_sym;
    unstable_spec;
    unstable_pred;
    uncovered_read;
    fragment_expr;
    fragment_assert;
    dangling_inv;
    unused_ghost_block;
    div_by_zero;
    dead_branch;
    contradictory_requires;
    false_ensures;
    inv_not_inductive;
    redundant_stabilize;
    unused_param;
    no_variant;
    nested_atomic;
    racy_par_branch;
    unstable_inv;
  ]
