(** Bank accounts with a heap-dependent global invariant.

    The motivating scenario for heap-dependent assertions: the
    interesting invariant — "the balances sum to [total]" — talks about
    *the current heap contents* of two cells at once. In stable-Iris
    style one must existentially name both balances and thread the
    equation through every step; destabilized, the spec just reads the
    heap: [!a + !b = total].

    This example verifies the transfer procedure with both spec styles
    and compares the annotation shapes, then demonstrates that a buggy
    transfer (overdraft allowed) is caught.

    Run with: dune exec examples/bank_account.exe *)

module A = Baselogic.Assertion
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module Pr = Suite.Programs
open Stdx

let deref l = Baselogic.Hterm.deref (T.var l)
let sym x = HL.Val (HL.Sym x)

let show name prog =
  match
    List.for_all (fun (_, o) -> o = V.Verified) (V.verify prog)
  with
  | true -> Fmt.pr "  %-24s VERIFIED@." name
  | false ->
      let m =
        List.find_map
          (function _, V.Failed m -> Some m | _ -> None)
          (V.verify prog)
      in
      Fmt.pr "  %-24s FAILED: %s@." name (Option.value ~default:"?" m)

let bank = Option.get (Pr.find "bank")

let () =
  Fmt.pr "== bank accounts ==@.@.";
  Fmt.pr "destabilized spec (reads the heap):@.";
  Fmt.pr "  requires … ⌜!a + !b = total⌝ ∗ ⌜0 ≤ amt ≤ !a⌝@.";
  Fmt.pr "  ensures  … ⌜!a + !b = total⌝ ∗ ⌜0 ≤ !a⌝@.@.";
  show "transfer (heap-dep)" bank.Pr.prog;
  (match bank.Pr.stable_variant with
  | Some sv -> show "transfer (stable)" sv
  | None -> ());

  (* A buggy transfer: no overdraft check in the spec. The sum is
     preserved, but the non-negativity claim must fail. *)
  let buggy =
    {
      V.pname = "transfer_overdraft";
      params = [ "a"; "b"; "amt"; "total" ];
      requires =
        A.seps
          [
            A.Exists ("va", A.points_to (T.var "a") (T.var "va"));
            A.Exists ("vb", A.points_to (T.var "b") (T.var "vb"));
            A.Pure (T.eq (T.add (deref "a") (deref "b")) (T.var "total"));
            (* missing: 0 ≤ amt ≤ !a *)
          ];
      ensures =
        A.seps
          [
            A.Exists ("wa", A.points_to (T.var "a") (T.var "wa"));
            A.Exists ("wb", A.points_to (T.var "b") (T.var "wb"));
            A.Pure (T.eq (T.add (deref "a") (deref "b")) (T.var "total"));
            A.Pure (T.le (T.int 0) (deref "a"));
          ];
      body =
        HL.Let ("x", HL.Load (sym "a"),
          HL.Let ("x'", HL.BinOp (HL.Sub, HL.Var "x", sym "amt"),
            HL.Seq (HL.Store (sym "a", HL.Var "x'"),
              HL.Let ("y", HL.Load (sym "b"),
                HL.Let ("y'", HL.BinOp (HL.Add, HL.Var "y", sym "amt"),
                  HL.Store (sym "b", HL.Var "y'"))))));
      invariants = [];
      ghost = [];
    }
  in
  Fmt.pr "@.without the overdraft precondition:@.";
  show "transfer (buggy)" { V.procs = [ buggy ]; preds = Smap.empty; invs = [] };
  Fmt.pr "@.(the sum invariant alone is preserved — dropping the@.";
  Fmt.pr " non-negativity claim from the post makes the buggy body pass:)@.";
  let sum_only =
    {
      buggy with
      V.pname = "transfer_sum_only";
      ensures =
        A.seps
          [
            A.Exists ("wa", A.points_to (T.var "a") (T.var "wa"));
            A.Exists ("wb", A.points_to (T.var "b") (T.var "wb"));
            A.Pure (T.eq (T.add (deref "a") (deref "b")) (T.var "total"));
          ];
    }
  in
  show "transfer (sum only)" { V.procs = [ sum_only ]; preds = Smap.empty; invs = [] };

  (* Run a concrete transfer. *)
  Fmt.pr "@.running transfer(#0: 100, #1: 50, amt = 30):@.";
  let body =
    Heaplang.Subst.close_expr
      [ ("a", HL.Loc 0); ("b", HL.Loc 1); ("amt", HL.Int 30) ]
      (List.hd bank.Pr.prog.V.procs).V.body
  in
  let main =
    HL.Seq (HL.Alloc (HL.Val (HL.Int 100)),
      HL.Seq (HL.Alloc (HL.Val (HL.Int 50)),
        HL.Seq (body,
          HL.PairE (HL.Load (HL.Val (HL.Loc 0)), HL.Load (HL.Val (HL.Loc 1))))))
  in
  match Heaplang.Interp.run main with
  | Heaplang.Interp.Value v -> Fmt.pr "  balances after: %a@." HL.pp_value v
  | Heaplang.Interp.Error m -> Fmt.pr "  error: %s@." m
  | Heaplang.Interp.Timeout -> Fmt.pr "  timeout@."
