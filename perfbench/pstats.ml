(** Order statistics for benchmark samples.

    Percentiles use the nearest-rank rule. A percentile is only
    reported when at least {!min_beyond} samples lie above it: with
    fewer, a single outlier decides the value and two runs of the same
    code disagree. *)

let min_beyond = 10

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** Index of the nearest-rank [p]-th percentile in a sorted array of
    [n] samples. *)
let rank p n = max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))

(** Samples strictly above the [p]-th percentile's rank. *)
let beyond p n = if n = 0 then 0 else n - 1 - rank p n

let supported p n = beyond p n >= min_beyond

(** The nearest-rank [p]-th percentile of a non-empty sample, whatever
    its size. *)
let nearest_rank p (xs : float array) = (sorted xs).(rank p (Array.length xs))

(** The [p]-th percentile of [xs], or [None] when fewer than
    {!min_beyond} samples lie beyond it. *)
let percentile p (xs : float array) =
  let n = Array.length xs in
  if n = 0 || not (supported p n) then None else Some (nearest_rank p xs)

let median (xs : float array) =
  let n = Array.length xs in
  if n = 0 then nan
  else
    let a = sorted xs in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
