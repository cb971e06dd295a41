(** The example programs of [examples/] as a library-level registry, so
    they are one verification/lint target rather than code trapped
    inside executables. The executables import their programs from
    here; [daenerys lint] and [dev/check.sh] sweep [all]. *)

open Stdx
module A = Baselogic.Assertion
module HT = Baselogic.Hterm
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec

let sym x = HL.Val (HL.Sym x)
let deref l = HT.deref (T.var l)

(* ------------------------------------------------------------------ *)
(* quickstart: increment a cell twice *)

let incr2_body =
  HL.Let ("x", HL.Load (sym "l"),
    HL.Let ("x1", HL.BinOp (HL.Add, HL.Var "x", HL.Val (HL.Int 1)),
      HL.Seq (HL.Store (sym "l", HL.Var "x1"),
        HL.Let ("y", HL.Load (sym "l"),
          HL.Let ("y1", HL.BinOp (HL.Add, HL.Var "y", HL.Val (HL.Int 1)),
            HL.Seq (HL.Store (sym "l", HL.Var "y1"),
                    HL.Load (sym "l")))))))

let incr2_pre = A.points_to (T.var "l") (T.var "v0")

(* Destabilized style: the postcondition reads the heap directly —
   [!l = v0 + 2] — instead of naming the final value. *)
let incr2_post =
  A.Sep
    ( A.Exists ("w", A.points_to (T.var "l") (T.var "w")),
      A.Pure
        (T.and_
           [
             T.eq (deref "l") (T.add (T.var "v0") (T.int 2));
             T.eq (T.var "result") (T.add (T.var "v0") (T.int 2));
           ]) )

let incr2_proc =
  {
    V.pname = "incr2";
    params = [ "l"; "v0" ];
    requires = incr2_pre;
    ensures = incr2_post;
    body = incr2_body;
    invariants = [];
    ghost = [];
  }

let incr2 = { V.procs = [ incr2_proc ]; preds = Smap.empty; invs = [] }

(* ------------------------------------------------------------------ *)
(* parsed_program: absolute difference, through the textual front-end *)

let absdiff_src =
  {|
  (* absolute difference of the two cells, leaving both intact *)
  let x = !?a in
  let y = !?b in
  if x < y then y - x else x - y
|}

let absdiff_proc =
  {
    V.pname = "absdiff";
    params = [ "a"; "b"; "va"; "vb" ];
    requires =
      A.seps
        [
          A.points_to (T.var "a") (T.var "va");
          A.points_to (T.var "b") (T.var "vb");
        ];
    ensures =
      A.seps
        [
          A.points_to (T.var "a") (T.var "va");
          A.points_to (T.var "b") (T.var "vb");
          A.Pure (T.ge (T.var "result") (T.int 0));
          A.Pure
            (T.or_
               [
                 T.eq (T.var "result") (T.sub (T.var "va") (T.var "vb"));
                 T.eq (T.var "result") (T.sub (T.var "vb") (T.var "va"));
               ]);
        ];
    body = Heaplang.Parser.parse_exn absdiff_src;
    invariants = [];
    ghost = [];
  }

let absdiff = { V.procs = [ absdiff_proc ]; preds = Smap.empty; invs = [] }

(* ------------------------------------------------------------------ *)

(** Every example program, by name. The examples that demonstrate
    suite entries ([bank_account], [verified_list]) take their programs
    from {!Programs}, which [daenerys lint] already sweeps. *)
let all : (string * V.program) list =
  [ ("example:incr2", incr2); ("example:absdiff", absdiff) ]
