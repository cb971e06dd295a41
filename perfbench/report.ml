(** The benchmark's result line and trace file. *)

module J = Server.Json

(** A float printed with every digit needed to read it back exactly. *)
let number v =
  let s = Printf.sprintf "%.15g" v in
  J.Raw (if float_of_string s = v then s else Printf.sprintf "%.17g" v)

type metric = { name : string; value : float; unit_ : string }

(** The last line of the benchmark's standard output. *)
let result_line ~correct ~attempted ~failed (metrics : metric list) =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Num (float_of_int attempted));
         ("failed", J.Num (float_of_int failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun m -> (m.name, J.Obj [ ("value", number m.value); ("unit", J.Str m.unit_) ]))
                metrics) );
       ])
