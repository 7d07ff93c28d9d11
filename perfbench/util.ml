(* Host clock, order statistics and the result line shared by the
   workloads. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* [time f] runs [f] and returns its value with the host seconds it
   took, on the monotonic clock *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs_since t0)

let median = function
  | [] -> invalid_arg "median of no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* exact nearest-rank percentile, the serving harness's own definition *)
let percentile xs p = Mtj_harness.Report.percentile (Array.of_list xs) p

let sum = List.fold_left ( +. ) 0.0
let sumi = List.fold_left ( + ) 0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* peak resident set of this process (VmHWM), in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
      in
      scan ())

(* --- outcome of one run --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;  (** program executions whose output was checked *)
  failed : int;     (** failed runs plus output or replay mismatches *)
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the result *)
}

let json_float v =
  if not (Float.is_finite v) then failwith (Printf.sprintf "non-finite metric %f" v);
  Printf.sprintf "%.17g" v

(* every metric by name and unit, then the one-line JSON result the
   benchmark contract asks for as the last line of stdout *)
let print_outcome o =
  List.iter print_endline o.notes;
  List.iter
    (fun x -> Printf.printf "  %-28s %18.6f %s\n" x.name x.value x.unit_)
    o.metrics;
  Printf.printf "attempted %d, failed %d\n" o.attempted o.failed;
  let metrics =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float x.value) x.unit_)
         o.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed metrics
