(** An open-loop load generator and the [max_rps] search built on it.

    Request [i] is due at [start + i / rate], whatever happened to the
    requests before it. Latency is measured from the due time, not from
    the moment the request was actually written: when the server (or
    the generator itself) stalls, every request that fell due during
    the stall is charged the wait. How late the generator wrote each
    request is recorded separately as [lag_ms].

    The transport is abstract ({!conn}) so the scheduler can be driven
    by a simulated server and clock in tests. *)

type conn = {
  send : int -> unit;  (** write request [i] now *)
  poll : float -> (int * bool) list;
      (** wait up to the given number of seconds for responses; return
          each completed request index with whether it succeeded *)
}

type result = {
  sent : int;
  completed : int;
  failed : int;  (** completed but not ok *)
  unanswered : int;  (** sent but still open when the drain deadline passed *)
  backlog_end : int;  (** requests open when the last one was written *)
  latency_ms : float array;
      (** completion - due, per sent request; [nan] if unanswered *)
  lag_ms : float array;  (** write time - due, per sent request *)
}

(** After the last write, the generator waits this long at most for the
    remaining responses. *)
let drain_s = 10.0

(** Run [n] requests at [rate] per second.

    With [limit_ms] the run is a trial of the [max_rps] search and stops
    sending as soon as it cannot meet that p99 limit any more: after a
    failed response, or once more than [n/100] requests have answered
    later than the limit. *)
let run ~(now : unit -> float) ~rate ~n ?limit_ms (c : conn) : result =
  let start = now () in
  let due i = start +. (float_of_int i /. rate) in
  let lat = Array.make n nan and lag = Array.make n nan in
  let sent = ref 0 and completed = ref 0 and failed = ref 0 in
  let stop = ref false and backlog_end = ref (-1) and late = ref 0 in
  let finished_sending () = !sent >= n || !stop in
  let drain_deadline = ref infinity in
  let record t (i, ok) =
    if Float.is_nan lat.(i) then begin
      lat.(i) <- (t -. due i) *. 1000.0;
      incr completed;
      if not ok then incr failed;
      match limit_ms with
      | Some limit ->
          if lat.(i) > limit then incr late;
          if (not ok) || !late > n / 100 then stop := true
      | None -> ()
    end
  in
  while
    (not (finished_sending ()))
    || (!completed < !sent && now () < !drain_deadline)
  do
    let t = now () in
    while (not (finished_sending ())) && due !sent <= t do
      c.send !sent;
      lag.(!sent) <- (now () -. due !sent) *. 1000.0;
      incr sent
    done;
    if finished_sending () && !backlog_end < 0 then begin
      backlog_end := !sent - !completed;
      drain_deadline := now () +. drain_s
    end;
    let timeout =
      if finished_sending () then Float.max 0.0 (!drain_deadline -. now ())
      else Float.max 0.0 (due !sent -. now ())
    in
    match c.poll timeout with
    | [] -> ()
    | done_ ->
        let t = now () in
        List.iter (record t) done_
  done;
  if !backlog_end < 0 then backlog_end := !sent - !completed;
  {
    sent = !sent;
    completed = !completed;
    failed = !failed;
    unanswered = !sent - !completed;
    backlog_end = !backlog_end;
    latency_ms = Array.sub lat 0 !sent;
    lag_ms = Array.sub lag 0 !sent;
  }

(** Latencies of the answered requests among [lo, hi). *)
let answered ?(lo = 0) ?hi (r : result) =
  let hi = Option.value ~default:r.sent hi in
  Array.of_list
    (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list (Array.sub r.latency_ms lo (hi - lo))))

(** Whether a run met a p99 limit: every one of the [n] requests was
    sent, answered and ok, the p99 (from due time, over at least
    {!Pstats.min_beyond} samples beyond it) is within [p99_limit_ms],
    and the backlog did not grow: when the last request was written, at
    most [n/100] were still open (a longer queue holds more late
    requests than a p99 allows). *)
let meets ~p99_limit_ms ~n (r : result) =
  r.sent = n && r.completed = n && r.failed = 0
  && r.backlog_end <= n / 100
  &&
  match Pstats.percentile 99.0 (answered r) with
  | Some p99 -> p99 <= p99_limit_ms
  | None -> false

(** The highest rate on the ladder [hi, hi*ratio, hi*ratio^2, ...]
    (down to [lo]) for which [trial] holds, searched from the top: a
    trial above the knee fails fast (see {!run}'s [limit_ms]), and a
    noisy failure below the knee can only cost one rung, never the
    upper half of a bisection. Returns [0.0] if no rung passed, and
    every [(rate, passed)] trial in order. *)
let max_rate ~lo ~hi ~ratio (trial : float -> bool) =
  let log = ref [] in
  let rec go r =
    if r < lo then 0.0
    else
      let ok = trial r in
      log := (r, ok) :: !log;
      if ok then r else go (r *. ratio)
  in
  let best = go hi in
  (best, List.rev !log)
