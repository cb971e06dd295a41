(** Recursive data structures: a verified linked chain.

    Shows the predicate machinery end to end: a recursive predicate
    definition ([clist p n]: a null-terminated chain of [n] cells),
    ghost fold/unfold commands placed in the program, a recursively
    verified procedure, and a concrete run over a freshly-built chain.

    Run with: dune exec examples/verified_list.exe *)

module A = Baselogic.Assertion
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module Pr = Suite.Programs

let list_length = Option.get (Pr.find "list_length")
let list_preds = list_length.Pr.prog.V.preds
let length_proc = List.hd list_length.Pr.prog.V.procs

let () =
  Fmt.pr "== verified linked chain ==@.@.";
  let def = Stdx.Smap.find "clist" list_preds in
  Fmt.pr "predicate clist(%s):@.  @[%a@]@.@."
    (String.concat ", " def.A.params)
    A.pp def.A.body;
  Fmt.pr "procedure length(p, n):@.";
  Fmt.pr "  requires clist(p, n) ∗ ⌜0 ≤ n⌝@.";
  Fmt.pr "  ensures  clist(p, n) ∗ ⌜result = n⌝@.@.";

  (match V.verify list_length.Pr.prog with
  | results when List.for_all (fun (_, o) -> o = V.Verified) results ->
      Fmt.pr "length: VERIFIED (recursively, against its own spec)@."
  | results ->
      List.iter
        (function
          | name, V.Failed m -> Fmt.pr "%s FAILED: %s@." name m
          | _ -> ())
        results);

  (* A wrong spec must fail: off-by-one length. *)
  let off_by_one =
    {
      length_proc with
      V.pname = "length_bug";
      ensures =
        A.Sep
          ( A.Pred ("clist", [ T.var "p"; T.var "n" ]),
            A.Pure (T.eq (T.var "result") (T.add (T.var "n") (T.int 1))) );
    }
  in
  (match
     V.verify_proc
       { V.procs = [ off_by_one ]; preds = list_preds; invs = [] }
       off_by_one
   with
  | V.Failed _ -> Fmt.pr "length+1:  correctly rejected@."
  | V.Verified -> Fmt.pr "length+1:  VERIFIED (bug!)@."
  | o -> Fmt.pr "length+1:  %a@." V.pp_outcome o);

  (* Build the chain #2 -> #1 -> #0 -> nil at runtime and measure it
     with the *executable* version of length. *)
  Fmt.pr "@.running length on a concrete 3-chain:@.";
  let open HL in
  let length_fun =
    (* rec len p = if p == -1 then 0 else 1 + len !p *)
    Rec
      ( Some "len",
        "p",
        If
          ( BinOp (Eq, Var "p", Val (Int (-1))),
            Val (Int 0),
            BinOp (Add, Val (Int 1), App (Var "len", Load (Var "p"))) ) )
  in
  let main =
    (* cells hold the next pointer; -1 terminates *)
    Let ("c0", Alloc (Val (Int (-1))),
      Let ("c1", Alloc (Var "c0"),
        Let ("c2", Alloc (Var "c1"),
          App (length_fun, Var "c2"))))
  in
  match Heaplang.Interp.run main with
  | Heaplang.Interp.Value v -> Fmt.pr "  length = %a@." pp_value v
  | Heaplang.Interp.Error m -> Fmt.pr "  error: %s@." m
  | Heaplang.Interp.Timeout -> Fmt.pr "  timeout@."
