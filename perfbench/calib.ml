(** The host's speed, measured by a fixed calibration kernel.

    The benchmark runs on shared hosts whose speed drifts by up to half
    in phases of ten seconds to a minute: another tenant on the same
    core slows every instruction the benchmark runs, the program's and
    the kernel's alike. The kernel is the benchmark's own code, so no
    change to the program can move it; its time, taken right before and
    after a piece of work, says how fast the host ran that work.
    Dividing a time by {!factor} rescales it to a host of reference
    speed, on which one kernel round takes {!reference_ms}.

    The kernel mixes what the verifier spends its time on: allocation
    of short-lived nodes, ordered-map search with integer compares, and
    minor collections. It keeps nothing alive between rounds, so it
    does not grow the heap the measured work runs in. *)

module IM = Map.Make (Int)

(** Maps built per kernel round. *)
let maps = 32

let kernel () =
  let x = ref 0x2545F491 and acc = ref 0 in
  for _ = 1 to maps do
    let m = ref IM.empty in
    for i = 1 to 200 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      m := IM.add (!x land 1023) i !m
    done;
    acc := IM.fold (fun k v a -> a + (k lxor v)) !m !acc
  done;
  ignore (Sys.opaque_identity !acc)

(** One kernel round on a host of reference speed, in milliseconds. *)
let reference_ms = 1.0

(** The time of one kernel round now, in milliseconds: the fastest of
    [tries] rounds, so that an interrupt inside one round does not
    count as a slow host. *)
let sample ?(tries = 3) () =
  let best = ref infinity in
  for _ = 1 to tries do
    let t0 = Clock.now () in
    kernel ();
    best := Float.min !best ((Clock.now () -. t0) *. 1000.0)
  done;
  !best

(** How much slower than the reference host the host ran, given kernel
    samples taken before and after a piece of work. *)
let factor ~before ~after = (before +. after) /. 2.0 /. reference_ms
