(** Annotated surface programs ([.hl] text) for the daemon workloads.

    The same two families as {!Suite.Corpus} — a chain of updates of
    one cell, and [k] cells each bumped once — drawn from the same
    ranges, with about one in twelve carrying a wrong postcondition.
    Each source is drawn from its own [(seed, index)] generator, so any
    index range can be produced on its own and two indices never share
    a procedure name, a variable name or a source text: every source
    misses the daemon's verdict cache the first time it is sent. *)

type src = {
  name : string;
  source : string;
  expect_fail : bool;  (** the daemon must answer [exit 1] *)
}

let chain b ~i ~n ~step ~post_off =
  let final = Printf.sprintf "v%d + %d" i ((n * step) + post_off) in
  Printf.bprintf b
    "procedure p%d_chain%d(l, v%d)\n\
    \  requires l |-> v%d\n\
    \  ensures l |-> (%s) * [result == %s]\n\
     {\n"
    i n i i final final;
  for s = n downto 1 do
    Printf.bprintf b "  let c%d_%d = !l in\n  let d%d_%d = c%d_%d + %d in\n  l <- d%d_%d;\n"
      i s i s i s step i s
  done;
  Buffer.add_string b "  !l\n}\n"

let cells b ~i ~k ~step ~wrong_cell =
  let cell j = Printf.sprintf "m%d_%d" i j and v j = Printf.sprintf "w%d_%d" i j in
  let all f sep = String.concat sep (List.init k f) in
  Printf.bprintf b "procedure p%d_cells%d(%s, %s)\n  requires %s\n  ensures %s\n{\n" i k
    (all cell ", ") (all v ", ")
    (all (fun j -> Printf.sprintf "%s |-> %s" (cell j) (v j)) " * ")
    (all
       (fun j ->
         Printf.sprintf "%s |-> (%d + %s)" (cell j)
           (step + if j = wrong_cell then 1 else 0)
           (v j))
       " * ");
  Buffer.add_string b
    (all
       (fun j ->
         Printf.sprintf "  let c = !%s in let d = c + %d in %s <- d" (cell j) step
           (cell j))
       ";\n");
  Buffer.add_string b "\n}\n"

(** Source number [i] of the stream for [seed]. *)
let make ~seed i : src =
  let rng = Random.State.make [| 0x5eed; seed; i |] in
  let fail = Random.State.int rng 12 = 0 in
  let b = Buffer.create 512 in
  let name =
    if Random.State.bool rng then begin
      let n = 3 + Random.State.int rng 8 in
      let step = 1 + Random.State.int rng 9 in
      let post_off = if fail then 1 + Random.State.int rng 3 else 0 in
      chain b ~i ~n ~step ~post_off;
      Printf.sprintf "p%d_chain%d" i n
    end
    else begin
      let k = 2 + Random.State.int rng 7 in
      let step = 1 + Random.State.int rng 9 in
      let wrong_cell = if fail then Random.State.int rng k else -1 in
      cells b ~i ~k ~step ~wrong_cell;
      Printf.sprintf "p%d_cells%d" i k
    end
  in
  { name; source = Buffer.contents b; expect_fail = fail }
