(* In-memory span ledger and exact sample statistics.

   Spans are recorded by the benchmark around its own calls into each
   layer; nothing inside the program is instrumented. Every span is kept
   in memory (name, start, duration, nesting depth, op index) and
   written once at exit as a Chrome trace. Percentiles are exact order
   statistics of the sorted samples, never histogram buckets. *)

(* Monotonic, nanosecond resolution: short calls never tie at a whole
   microsecond. *)
let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

type span = {
  name : string;
  start_us : float;
  dur_us : float;
  depth : int;
  op : int;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable depth : int;
  mutable op : int;  (** op index stamped on new spans; -1 outside ops *)
  samples : (string, float list ref) Hashtbl.t;
  wall0_us : float;  (** wall clock at creation, anchoring the trace *)
  mono0_us : float;
}

let create () =
  {
    spans = [];
    depth = 0;
    op = -1;
    samples = Hashtbl.create 64;
    wall0_us = Unix.gettimeofday () *. 1e6;
    mono0_us = now_us ();
  }

let add_sample t name v =
  match Hashtbl.find_opt t.samples name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add t.samples name (ref [ v ])

(* Time [f], record it as a span and as a sample of [name]. An exception
   escaping [f] still closes the span, so nesting stays balanced. *)
let span t name f =
  let start_us = now_us () in
  let depth = t.depth in
  t.depth <- depth + 1;
  let close () =
    let dur_us = now_us () -. start_us in
    t.depth <- depth;
    t.spans <- { name; start_us; dur_us; depth; op = t.op } :: t.spans;
    add_sample t name dur_us
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let samples t name =
  match Hashtbl.find_opt t.samples name with
  | Some l -> Array.of_list !l
  | None -> [||]

let total t name = Array.fold_left ( +. ) 0.0 (samples t name)

(* --- exact order statistics --------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [q] of the samples at or below it. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [q] nearest-rank position. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let p50 a = percentile (sorted a) 0.5

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* A reported number: name, unit, value and how it was obtained. *)
type metric = { mname : string; unit_ : string; value : float; note : string }

let metric ?(note = "") mname unit_ value = { mname; unit_; value; note }

(* --- Chrome trace -------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One B/E pair per span on a single track, ordered so that every E
   closes the innermost open B (spans are recorded at close, so children
   precede parents in the list; sorting by start, then depth, restores
   the nesting). *)
let write_chrome_trace t ~path ~label =
  let spans =
    List.sort
      (fun a b ->
        match Float.compare a.start_us b.start_us with
        | 0 -> compare a.depth b.depth
        | c -> c)
      t.spans
  in
  let t0 = match spans with s :: _ -> s.start_us | [] -> now_us () in
  let oc = open_out path in
  Printf.fprintf oc "{\"t0_us\":%.0f,\"traceEvents\":[\n"
    (t.wall0_us +. t0 -. t.mono0_us);
  Printf.fprintf oc
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"name\":%s}}"
    (json_string label);
  let emit ph name ts op =
    Printf.fprintf oc
      ",\n{\"name\":%s,\"ph\":\"%s\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{\"op\":%d}}"
      (json_string name) ph (ts -. t0) op
  in
  (* a stack of open spans, closed as soon as the next span starts after
     their end *)
  let rec close_until (stack : span list) ts =
    match stack with
    | top :: rest when top.start_us +. top.dur_us <= ts ->
        emit "E" top.name (top.start_us +. top.dur_us) top.op;
        close_until rest ts
    | _ -> stack
  in
  let stack =
    List.fold_left
      (fun stack (s : span) ->
        let stack = close_until stack s.start_us in
        (* equal timestamps at microsecond resolution can make a parent
           look finished before its child starts; close by depth too *)
        let rec by_depth (stack : span list) =
          match stack with
          | top :: rest when top.depth >= s.depth ->
              emit "E" top.name (top.start_us +. top.dur_us) top.op;
              by_depth rest
          | _ -> stack
        in
        let stack = by_depth stack in
        emit "B" s.name s.start_us s.op;
        s :: stack)
      [] spans
  in
  List.iter (fun (s : span) -> emit "E" s.name (s.start_us +. s.dur_us) s.op) stack;
  output_string oc "\n]}\n";
  close_out oc
