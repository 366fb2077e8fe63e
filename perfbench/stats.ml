(* Sample statistics and the metrics registry, read the same way from
   this process and from a server's METRICS dump. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile; [nan] on no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

(* Samples strictly above the [p] percentile: the tail a percentile
   rests on should hold at least ten. *)
let beyond p xs =
  let n = List.length xs in
  n - max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let sum xs = List.fold_left ( +. ) 0. xs

let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

let ms_of_ns ns = Int64.to_float ns /. 1e6

let ms_since t0 = ms_of_ns (Obs.Mclock.elapsed_ns ~since:t0)

(* A registry snapshot: counters by name, histograms as (count, sum). *)
type snapshot = {
  counters : (string, int) Hashtbl.t;
  histograms : (string, int * float) Hashtbl.t;
}

let snapshot_of_json (j : Server.Wire.t) =
  let s = { counters = Hashtbl.create 64; histograms = Hashtbl.create 64 } in
  let field k o = Option.bind (Server.Wire.member k o) in
  let items k =
    Option.value ~default:[] (Option.bind (Server.Wire.member k j) Server.Wire.to_list_opt)
  in
  List.iter
    (fun c ->
      match field "name" c Server.Wire.to_string_opt, field "value" c Server.Wire.to_int_opt with
      | Some n, Some v -> Hashtbl.replace s.counters n v
      | _ -> ())
    (items "counters");
  List.iter
    (fun h ->
      match
        ( field "name" h Server.Wire.to_string_opt,
          field "count" h Server.Wire.to_int_opt,
          field "sum" h Server.Wire.to_float_opt )
      with
      | Some n, Some c, Some sum -> Hashtbl.replace s.histograms n (c, sum)
      | _ -> ())
    (items "histograms");
  s

let local_snapshot () =
  match Server.Wire.of_string (Obs.Metrics.to_json ()) with
  | Ok j -> snapshot_of_json j
  | Error e -> failwith ("metrics registry: " ^ e)

let counter_delta ~before ~after name =
  let get s = Option.value ~default:0 (Hashtbl.find_opt s.counters name) in
  float_of_int (get after - get before)

(* (observations, sum) recorded between the two snapshots *)
let histogram_delta ~before ~after name =
  let get s = Option.value ~default:(0, 0.) (Hashtbl.find_opt s.histograms name) in
  let c0, s0 = get before and c1, s1 = get after in
  float_of_int (c1 - c0), s1 -. s0

let histogram_mean_delta ~before ~after name =
  let n, sum = histogram_delta ~before ~after name in
  ratio sum n

(* CPU seconds this process has used, all threads. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds process [pid] has used, all threads: the utime and stime
   fields of /proc/<pid>/stat, in clock ticks of 1/100 s; [nan] if it
   cannot be read. *)
let proc_cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (* the fields after the parenthesised command name, from the state on *)
    match String.rindex_opt line ')' with
    | None -> nan
    | Some i -> (
      let fields = String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2)) in
      match List.filteri (fun k _ -> k = 11 || k = 12) fields with
      | [ utime; stime ] -> float_of_int (int_of_string utime + int_of_string stime) /. 100.
      | _ -> nan))

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else scan ()
    in
    let mb = scan () in
    close_in ic;
    mb
