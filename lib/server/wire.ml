(* The old name of the wire format, {!Obs.Json}, kept for its users. *)
include Obs.Json
