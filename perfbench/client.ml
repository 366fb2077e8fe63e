(* The benchmark's own view of obda_server: start it as a separate
   process, talk to it over TCP one JSON line at a time, stop it. It
   does not use Server.Loadgen, so a change to the load generator
   cannot move the numbers. *)

type server = {
  pid : int;
  port : int;
  out : in_channel;  (* the server's stdout *)
}

let server_exe = "_build/default/bin/obda_server.exe"

let live = ref []

let stop s =
  if List.mem s.pid !live then begin
    live := List.filter (( <> ) s.pid) !live;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid);
    close_in_noerr s.out
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Starts the server on an ephemeral port and returns once it listens. *)
let start args =
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list ((server_exe :: args) @ [ "--host"; "127.0.0.1"; "--port"; "0" ]) in
  let pid = Unix.create_process server_exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line out with
    | exception End_of_file -> failwith "obda_server exited before listening"
    | line -> (
      match Scanf.sscanf line "obda-server: %_s listening on %_[^:]:%d" Fun.id with
      | p -> p
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> port ())
  in
  { pid; port = port (); out }

type conn = {
  ic : in_channel;
  oc : out_channel;
}

let connect s =
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.TCP_NODELAY true;
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  { ic = Unix.in_channel_of_descr sock; oc = Unix.out_channel_of_descr sock }

(* One request, one reply line. *)
let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c =
  (try call c {|{"op":"QUIT"}|} |> ignore with _ -> ());
  close_in_noerr c.ic

let parse line =
  match Server.Wire.of_string line with
  | Ok j -> j
  | Error e -> failwith ("unparseable reply: " ^ e)

let field k j = Server.Wire.member k j

let str k j = Option.bind (field k j) Server.Wire.to_string_opt

let num k j = Option.bind (field k j) Server.Wire.to_float_opt

let registry c =
  let reply = parse (call c {|{"op":"METRICS","scope":"registry"}|}) in
  match field "registry" reply with
  | Some r -> Stats.snapshot_of_json r
  | None -> failwith "METRICS reply without a registry"
