(** Seconds on the monotonic clock, with nanosecond resolution.
    [Unix.gettimeofday] ticks in microseconds, which is coarser than the
    spread of a 40 µs call and would make medians repeat exactly. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
