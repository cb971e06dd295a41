(** The benchmark suite: annotated programs exercising the verifier
    (and, where marked, the certified baseline).

    Every entry the surface syntax can express is defined by its
    [examples/*.hl] source, embedded into the library at build time
    ({!Sources}); only the two ghost-state entries are built here as
    ASTs, because the surface language has no ghost-update syntax.
    Sources are parsed and elaborated on first use ({!all}), never at
    module initialisation.

    Conventions: specification parameters appear as [Sym] values in
    programs and as term variables in assertions, with the same name;
    procedure results bind the reserved variable [result] in
    postconditions. An entry's main procedure is its program's last. *)

open Stdx
module A = Baselogic.Assertion
module GV = Baselogic.Ghost_val
module HT = Baselogic.Hterm
module T = Smt.Term
module HL = Heaplang.Ast
module V = Verifier.Exec
module P = Proofmode.Prove

(** A baseline (proof-producing) verification task. *)
type baseline = {
  b_pre : A.t;
  b_body : HL.expr;
  b_post : A.t;  (** binds [result] *)
  b_invs : (HL.expr * P.loop_annot) list;
}

type entry = {
  name : string;
  descr : string;
  prog : V.program;
  main : string;
  baseline : baseline option;
  stable_variant : V.program option;
      (** same program, specs without heap-dependent assertions (A1) *)
  expect_fail : bool;  (** negative test: must NOT verify *)
}

(* ------------------------------------------------------------------ *)
(* Ghost-state entries *)

let pt l v = A.points_to (T.var l) v
let v0_plus n = T.add (T.var "v0") (T.int n)

(* let c = !l in l <- c + n; ghost bump *)
let bump_body n =
  let l = HL.Val (HL.Sym "l") in
  HL.Let
    ( "c",
      HL.Load l,
      HL.Seq
        ( HL.Store (l, HL.BinOp (HL.Add, HL.Var "c", HL.Val (HL.Int n))),
          HL.GhostMark "bump" ) )

(* Physical increment with an authoritative nat ghost counter. The
   ghost update needs the symbolic old value, so the precondition names
   it as the parameter [v0]. *)
let ghost_counter =
  let gamma = "γc" in
  let auth n = GV.Auth_nat { auth = Some n; frag = n } in
  let proc =
    {
      V.pname = "ghost_incr";
      params = [ "l"; "v0" ];
      requires =
        A.seps
          [
            pt "l" (T.var "v0");
            A.Ghost (gamma, auth (T.var "v0"));
            A.Pure (T.le (T.int 0) (T.var "v0"));
          ];
      ensures =
        A.seps [ pt "l" (v0_plus 1); A.Ghost (gamma, auth (v0_plus 1)) ];
      body = bump_body 1;
      invariants = [];
      ghost =
        [ ("bump", [ V.Update (gamma, auth (T.var "v0"), auth (v0_plus 1)) ]) ];
    }
  in
  { V.procs = [ proc ]; preds = Smap.empty; invs = [] }

(* Monotone log: a MaxNat ghost lower bound is persistent, so the old
   bound survives the update. *)
let monotone =
  let gamma = "γm" in
  let bound t = A.Ghost (gamma, GV.Max_nat t) in
  let proc =
    {
      V.pname = "bump_log";
      params = [ "l"; "v0" ];
      requires =
        A.seps
          [
            pt "l" (T.var "v0");
            bound (T.var "v0");
            A.Pure (T.le (T.int 0) (T.var "v0"));
          ];
      ensures = A.seps [ pt "l" (v0_plus 2); bound (T.var "v0") ];
      body = bump_body 2;
      invariants = [];
      ghost =
        [
          ( "bump",
            [
              V.Update
                (gamma, GV.Max_nat (T.var "v0"), GV.Max_nat (v0_plus 2));
            ] );
        ];
    }
  in
  { V.procs = [ proc ]; preds = Smap.empty; invs = [] }

(* ------------------------------------------------------------------ *)
(* The registry *)

type source =
  | Hl of string  (** an embedded [examples/] file *)
  | Ast of V.program

(** The suite in report order: name, source, description, negative.
    One row per entry. *)
let table =
  [
    ("swap", Hl "swap.hl", "swap two references", false);
    ("swap_client", Hl "swap_client.hl", "modular verification through swap's spec", false);
    ("count", Hl "count.hl", "count a cell up to n (loop invariant reads the heap)", false);
    ("max3", Hl "max3.hl", "maximum of three, branch coverage", false);
    ("clamp", Hl "clamp.hl", "clamp with a runtime assert", false);
    ("bank", Hl "bank.hl", "bank transfer preserving a heap-dependent sum invariant", false);
    ("ghost_counter", Ast ghost_counter, "physical increment with an authoritative ghost counter", false);
    ("monotone", Ast monotone, "monotone counter: MaxNat ghost bound survives updates", false);
    ("list_length", Hl "list_length.hl", "recursive chain length with a recursive predicate", false);
    ("cas_once", Hl "cas_once.hl", "compare-and-set with a disjunctive postcondition", false);
    ("faa_counter", Hl "faa_counter.hl", "two fetch-and-adds", false);
    ("times7", Hl "times7.hl", "7·n by repeated addition; invariant links two cells", false);
    ("cas_retry", Hl "cas_retry.hl", "CAS retry loop establishing a fixed value", false);
    ("lifecycle", Hl "lifecycle.hl", "alloc/use/free lifecycle; the final heap is empty", false);
    ("shared_read", Hl "shared_read.hl", "two half-permissions read consistently and rejoin", false);
    ("spinlock", Hl "spinlock.hl", "spinlock: CAS acquire transfers the cell out of the lock invariant", false);
    ("ticket_lock", Hl "ticket_lock.hl", "ticket lock: FAA dispenser under a weakened safety invariant", false);
    ("treiber", Hl "treiber.hl", "Treiber stack: recursive predicate owned by the invariant", false);
    ("bad_swap", Hl "bad_swap.hl", "swap with a wrong postcondition (must fail)", true);
    ("bad_leak", Hl "bad_leak.hl", "reads a location without permission (must fail)", true);
    ("bad_unstable", Hl "bad_unstable.hl", "stale heap-dependent fact after store (must fail)", true);
    ("bad_double_free", Hl "bad_double_free.hl", "double free (must fail)", true);
    ("bad_half_write", Hl "bad_half_write.hl", "store through a half permission (must fail)", true);
    ("racy_incr", Hl "da027_racy_par.hl", "parallel increment without atomic sections (must fail: branches own nothing)", true);
    ("lock_noinv", Hl "lock_noinv.hl", "spinlock body with no declared invariant (must fail: the CAS has no permission source)", true);
  ]

(** Entries with a certified-baseline task, whose body is the main
    procedure's, as is or in A-normal form. *)
let baselines =
  [
    ("swap", `Body);
    ("count", `Body);
    ("max3", `Anf);
    ("clamp", `Anf);
    ("faa_counter", `Body);
    ("lifecycle", `Body);
    ("shared_read", `Body);
  ]

(** The embedded text of an [examples/] file, by basename. *)
let source file = List.assoc_opt file Sources.files

let parse file =
  match source file with
  | Some src -> fst (Verifier.Elab.program_of_string ~file src)
  | None -> invalid_arg ("Suite.Programs: no embedded source " ^ file)

let main_proc (prog : V.program) =
  List.nth prog.V.procs (List.length prog.V.procs - 1)

(* The proof mode needs every loop annotated in stable form together
   with the guard it may assume inside the body; count is the only
   baseline entry with a loop, and borrows its stable variant's
   invariant; any other shape of count is an error, not a baseline
   without its loop annotation. *)
let loop_annots name (main : V.proc) stable_variant =
  let invs = Option.map (fun sv -> (main_proc sv).V.invariants) stable_variant in
  match (name, main.V.invariants, invs) with
  | "count", [ (loop, _) ], Some [ (_, inv) ] ->
      let guard = T.lt (HT.deref (T.var "i")) (T.var "n") in
      [ (loop, { P.inv; guard = Some guard }) ]
  | "count", _, _ ->
      invalid_arg
        "Suite.Programs: count and its stable variant must each have \
         exactly one loop"
  | _ -> []

let elaborate (name, src, descr, expect_fail) =
  let prog, stable_variant =
    match src with
    | Ast prog -> (prog, None)
    | Hl file ->
        let stable = Filename.chop_suffix file ".hl" ^ "_stable.hl" in
        (parse file, Option.map (fun _ -> parse stable) (source stable))
  in
  let main = main_proc prog in
  let baseline =
    Option.map
      (fun form ->
        {
          b_pre = main.V.requires;
          b_body =
            (match form with `Body -> main.V.body | `Anf -> P.anf main.V.body);
          b_post = main.V.ensures;
          b_invs = loop_annots name main stable_variant;
        })
      (List.assoc_opt name baselines)
  in
  {
    name;
    descr;
    prog;
    main = main.V.pname;
    baseline;
    stable_variant;
    expect_fail;
  }

(* Elaborated once, on first use, possibly from several domains at
   once: the daemon resolves entries on its workers, and a [Lazy.force]
   raced across domains raises. *)
let registry = Atomic.make None
let registry_lock = Mutex.create ()

(** Every entry, in report order. *)
let all () =
  match Atomic.get registry with
  | Some es -> es
  | None ->
      Mutex.protect registry_lock (fun () ->
          match Atomic.get registry with
          | Some es -> es
          | None ->
              let es = List.map elaborate table in
              Atomic.set registry (Some es);
              es)

let find name = List.find_opt (fun e -> String.equal e.name name) (all ())
let positive () = List.filter (fun e -> not e.expect_fail) (all ())
