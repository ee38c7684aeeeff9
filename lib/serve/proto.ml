let version = 1

(* Client-propagated trace context (W3C-traceparent-flavored, but line
   oriented like the rest of the protocol): a trace id the server adopts
   as its ambient request context, plus optionally the client's span id
   so server-side roots link back to the client's phase tree. *)
type trace_ctx = { tid : string; parent : int option }

type request = {
  solver : string option;
  deadline_ms : float option;
  trace : trace_ctx option;
  instance : Core.Instance.t;
}

type reply = {
  solver : string;
  cache_hit : bool;
  degraded : bool;
  makespan : float;
  elapsed_us : int;
  assignment : int array;
  trace : string option;
}

type stats_format = Prometheus | Json

type session_op =
  | S_create of Core.Instance.t
  | S_add_jobs of Core.Instance.new_job list
  | S_drop_jobs of int list
  | S_resolve of { deadline_ms : float option }
  | S_close

type session_request = { sid : string; op : session_op; trace : trace_ctx option }

type session_reply = {
  sid : string;
  op : string;
  generation : int;
  jobs : int;
  mode : string option;
  solve : reply option;
  trace : string option;
}

(* Profile frames drive the in-process sampling profiler ([Obs.Profile])
   over the admin stream: inspect it, toggle an engine, or run a whole
   windowed capture in one round trip. *)
type profile_action = P_status | P_start | P_stop | P_capture of float

type profile_request = {
  paction : profile_action;
  pmode : Obs.Profile.mode;
  prate : float option; (* hz (cpu) or sampling rate (alloc) *)
  pformat : Obs.Profile.format;
  pfilter : string option; (* keep only samples under this trace id *)
}

type response =
  | Reply of reply
  | Stats_reply of { format : stats_format; body : string }
  | Events_reply of { body : string }
  | Health_reply of { body : string }
  | Explain_reply of { body : string }
  | Session_reply of session_reply
  | Profile_reply of { body : string }
  | Error of string

(* Admin frames ride the same stream as solve requests; a session is a
   sequence of either. *)
type incoming =
  | Solve of request
  | Stats of stats_format
  | Events of { count : int option; min_level : Obs.Event.level }
  | Health
  | Explain of string
  | Session of session_request
  | Profile of profile_request

let request_header = Printf.sprintf "request v%d" version
let stats_header = Printf.sprintf "stats v%d" version
let events_header = Printf.sprintf "events v%d" version
let health_header = Printf.sprintf "health v%d" version
let explain_header = Printf.sprintf "explain v%d" version
let session_header = Printf.sprintf "session v%d" version
let profile_header = Printf.sprintf "profile v%d" version
let response_header = Printf.sprintf "response v%d" version

let session_op_name = function
  | S_create _ -> "create"
  | S_add_jobs _ -> "add-jobs"
  | S_drop_jobs _ -> "drop-jobs"
  | S_resolve _ -> "resolve"
  | S_close -> "close"

let stats_format_to_string = function
  | Prometheus -> "prometheus"
  | Json -> "json"

let stats_format_of_string = function
  | "prometheus" -> Some Prometheus
  | "json" -> Some Json
  | _ -> None

let float_to_text x =
  if x = infinity then "inf" else Printf.sprintf "%.17g" x

(* --- requests ----------------------------------------------------------- *)

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

(* Session and trace ids travel on single lines of both directions, so
   keep them boring: short and made of unambiguous characters. *)
let check_id ~what id =
  let ok_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
    | _ -> false
  in
  if id = "" then Result.Error (Printf.sprintf "%s: must not be empty" what)
  else if String.length id > 64 then
    Result.Error (Printf.sprintf "%s: must be at most 64 characters" what)
  else if not (String.for_all ok_char id) then
    Result.Error
      (Printf.sprintf "%s: %S has characters outside [A-Za-z0-9._-]" what id)
  else Ok id

(* [trace <id>] or [trace <id>/<parent-span>]: the optional suffix is
   the client's open span id; the server-side root phase records it as
   its parent so the merged trace chains across the process boundary. *)
let parse_trace v =
  let ( let* ) = Result.bind in
  match String.index_opt v '/' with
  | None ->
      let* tid = check_id ~what:"trace" v in
      Ok { tid; parent = None }
  | Some i -> (
      let* tid = check_id ~what:"trace" (String.sub v 0 i) in
      let p = String.sub v (i + 1) (String.length v - i - 1) in
      match int_of_string_opt p with
      | Some s when s >= 0 -> Ok { tid; parent = Some s }
      | Some _ | None ->
          Result.Error
            (Printf.sprintf "trace: parent span %S must be an integer >= 0" p))

let trace_to_text { tid; parent } =
  match parent with None -> tid | Some p -> Printf.sprintf "%s/%d" tid p

let parse_request body =
  let solver = ref None in
  let deadline_ms = ref None in
  let trace = ref None in
  let rec fields = function
    | [] -> Result.Error "request has no instance block"
    | line :: rest -> (
        match split_first line with
        | "instance", "" ->
            let text = String.concat "\n" rest in
            Result.map_error Core.Instance_io.error_to_string
              (Result.map
                 (fun instance ->
                   {
                     solver = !solver;
                     deadline_ms = !deadline_ms;
                     trace = !trace;
                     instance;
                   })
                 (Core.Instance_io.of_string_result text))
        | "solver", v when v <> "" ->
            solver := Some v;
            fields rest
        | "trace", v -> (
            match parse_trace v with
            | Ok tc ->
                trace := Some tc;
                fields rest
            | Result.Error _ as e -> e)
        | "deadline_ms", v -> (
            match float_of_string_opt v with
            | Some d when d >= 0.0 ->
                deadline_ms := Some d;
                fields rest
            | Some _ | None ->
                Result.Error
                  (Printf.sprintf "deadline_ms: expected a number >= 0, got %S" v)
        )
        | "", _ -> fields rest
        | key, _ ->
            Result.Error (Printf.sprintf "unknown request field %S" key))
  in
  fields body

(* A stats frame's body is an optional [format prometheus|json] field. *)
let parse_stats body =
  let rec fields format = function
    | [] -> Ok (Stats format)
    | line :: rest -> (
        match split_first line with
        | "format", v -> (
            match stats_format_of_string v with
            | Some f -> fields f rest
            | None ->
                Result.Error
                  (Printf.sprintf "format: expected prometheus|json, got %S" v))
        | "", _ -> fields format rest
        | key, _ -> Result.Error (Printf.sprintf "unknown stats field %S" key))
  in
  fields Prometheus body

(* An events frame's body is an optional [count N] cap and an optional
   [level debug|info|warn|error] floor. *)
let parse_events body =
  let rec fields count min_level = function
    | [] -> Ok (Events { count; min_level })
    | line :: rest -> (
        match split_first line with
        | "count", v -> (
            match int_of_string_opt v with
            | Some n when n >= 1 -> fields (Some n) min_level rest
            | Some _ | None ->
                Result.Error
                  (Printf.sprintf "count: expected an integer >= 1, got %S" v))
        | "level", v -> (
            match Obs.Event.level_of_string v with
            | Some l -> fields count l rest
            | None ->
                Result.Error
                  (Printf.sprintf
                     "level: expected debug|info|warn|error, got %S" v))
        | "", _ -> fields count min_level rest
        | key, _ -> Result.Error (Printf.sprintf "unknown events field %S" key)
      )
  in
  fields None Obs.Event.Debug body

(* A health frame has no fields (yet); reject junk so a future field is
   not silently ignored by old servers. *)
let parse_health body =
  let rec fields = function
    | [] -> Ok Health
    | line :: rest -> (
        match split_first line with
        | "", _ -> fields rest
        | key, _ -> Result.Error (Printf.sprintf "unknown health field %S" key))
  in
  fields body

let check_sid sid = check_id ~what:"id" sid

(* An explain frame's body is a mandatory [id <trace-id>] field naming
   the trace/request whose phase tree the server should render. *)
let parse_explain body =
  let id = ref None in
  let rec fields = function
    | [] -> (
        match !id with
        | Some i -> Ok (Explain i)
        | None -> Result.Error "explain frame missing id")
    | line :: rest -> (
        match split_first line with
        | "id", v -> (
            match check_id ~what:"id" v with
            | Ok i ->
                id := Some i;
                fields rest
            | Result.Error _ as e -> e)
        | "", _ -> fields rest
        | key, _ -> Result.Error (Printf.sprintf "unknown explain field %S" key))
  in
  fields body

(* A profile frame's body: an optional [action status|start|stop|capture],
   [seconds F] (window length; implies capture when no action is given),
   [mode cpu|alloc], [rate F], [format collapsed|json], and [id
   <trace-id>] to keep only one request's samples. *)
let parse_profile body =
  let action = ref None in
  let seconds = ref None in
  let mode = ref Obs.Profile.Cpu in
  let rate = ref None in
  let format = ref Obs.Profile.Collapsed in
  let filter = ref None in
  let rec fields = function
    | [] -> (
        let paction =
          match (!action, !seconds) with
          | Some a, _ -> Ok a
          | None, Some s -> Ok (P_capture s)
          | None, None -> Ok P_status
        in
        match paction with
        | Result.Error _ as e -> e
        | Ok (P_capture _) when !seconds = None ->
            Result.Error "capture requires a seconds field"
        | Ok paction ->
            let paction =
              (* a seconds field upgrades a plain capture marker *)
              match (paction, !seconds) with
              | P_capture _, Some s -> P_capture s
              | a, _ -> a
            in
            Ok
              (Profile
                 {
                   paction;
                   pmode = !mode;
                   prate = !rate;
                   pformat = !format;
                   pfilter = !filter;
                 }))
    | line :: rest -> (
        match split_first line with
        | "action", v -> (
            match v with
            | "status" -> action := Some P_status; fields rest
            | "start" -> action := Some P_start; fields rest
            | "stop" -> action := Some P_stop; fields rest
            | "capture" -> action := Some (P_capture 0.0); fields rest
            | v ->
                Result.Error
                  (Printf.sprintf
                     "action: expected status|start|stop|capture, got %S" v))
        | "seconds", v -> (
            match float_of_string_opt v with
            | Some s when s > 0.0 && s <= 600.0 ->
                seconds := Some s;
                fields rest
            | Some _ | None ->
                Result.Error
                  (Printf.sprintf "seconds: expected 0 < s <= 600, got %S" v))
        | "mode", v -> (
            match Obs.Profile.mode_of_string v with
            | Ok m -> mode := m; fields rest
            | Result.Error e -> Result.Error e)
        | "rate", v -> (
            match float_of_string_opt v with
            | Some r when r > 0.0 -> rate := Some r; fields rest
            | Some _ | None ->
                Result.Error
                  (Printf.sprintf "rate: expected a number > 0, got %S" v))
        | "format", v -> (
            match Obs.Profile.format_of_string v with
            | Ok f -> format := f; fields rest
            | Result.Error e -> Result.Error e)
        | "id", v -> (
            match check_id ~what:"id" v with
            | Ok i -> filter := Some i; fields rest
            | Result.Error _ as e -> e)
        | "", _ -> fields rest
        | key, _ -> Result.Error (Printf.sprintf "unknown profile field %S" key))
  in
  fields body

let float_of_text s =
  match s with "inf" -> Some infinity | _ -> float_of_string_opt s

(* One [job] line of an add-jobs frame: space-separated [key=value]
   tokens — [size=5 class=1], optionally [ptimes=1,2,inf] (unrelated) or
   [eligible=1,0,1] (restricted). *)
let parse_job_spec rest =
  let ( let* ) = Result.bind in
  let tokens = String.split_on_char ' ' rest |> List.filter (( <> ) "") in
  let parse_floats v =
    let parts = String.split_on_char ',' v in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | s :: rest -> (
          match float_of_text s with
          | Some x -> go (x :: acc) rest
          | None ->
              Result.Error (Printf.sprintf "job: ptimes entry %S not a number" s))
    in
    go [] parts
  in
  let parse_bools v =
    let parts = String.split_on_char ',' v in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | "1" :: rest -> go (true :: acc) rest
      | "0" :: rest -> go (false :: acc) rest
      | s :: _ ->
          Result.Error
            (Printf.sprintf "job: eligible entry %S must be 0 or 1" s)
    in
    go [] parts
  in
  let rec fields size cls ptimes eligible = function
    | [] -> (
        match (size, cls) with
        | Some nsize, Some nclass ->
            Ok
              {
                Core.Instance.nsize;
                nclass;
                nptimes = ptimes;
                neligible = eligible;
              }
        | None, _ -> Result.Error "job: missing size=..."
        | _, None -> Result.Error "job: missing class=...")
    | tok :: rest -> (
        match String.index_opt tok '=' with
        | None ->
            Result.Error (Printf.sprintf "job: expected key=value, got %S" tok)
        | Some i -> (
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            match k with
            | "size" -> (
                match float_of_text v with
                | Some x when x >= 0.0 && x < infinity ->
                    fields (Some x) cls ptimes eligible rest
                | Some _ | None ->
                    Result.Error
                      (Printf.sprintf
                         "job: size must be a finite number >= 0, got %S" v))
            | "class" -> (
                match int_of_string_opt v with
                | Some k when k >= 0 -> fields size (Some k) ptimes eligible rest
                | Some _ | None ->
                    Result.Error
                      (Printf.sprintf
                         "job: class must be an integer >= 0, got %S" v))
            | "ptimes" ->
                let* p = parse_floats v in
                fields size cls (Some p) eligible rest
            | "eligible" ->
                let* e = parse_bools v in
                fields size cls ptimes (Some e) rest
            | _ -> Result.Error (Printf.sprintf "job: unknown key %S" k)))
  in
  fields None None None None tokens

(* A session frame: [op] and [id] fields followed by the op's payload —
   an [instance] block (create), [job] lines (add-jobs), [jobs] index
   lines (drop-jobs) or an optional [deadline_ms] (resolve). *)
let parse_session body =
  let ( let* ) = Result.bind in
  let op = ref None in
  let sid = ref None in
  let deadline_ms = ref None in
  let added = ref [] in
  let dropped = ref [] in
  let instance = ref None in
  let trace = ref None in
  let rec fields = function
    | [] -> Ok ()
    | line :: rest -> (
        match split_first line with
        | "op", v when v <> "" ->
            op := Some v;
            fields rest
        | "id", v ->
            let* id = check_sid v in
            sid := Some id;
            fields rest
        | "trace", v ->
            let* tc = parse_trace v in
            trace := Some tc;
            fields rest
        | "instance", "" ->
            let text = String.concat "\n" rest in
            let* t =
              Result.map_error Core.Instance_io.error_to_string
                (Core.Instance_io.of_string_result text)
            in
            instance := Some t;
            Ok ()
        | "job", v ->
            let* j = parse_job_spec v in
            added := j :: !added;
            fields rest
        | "jobs", v ->
            let words =
              String.split_on_char ' ' v |> List.filter (( <> ) "")
            in
            let* ids =
              try
                Ok
                  (List.map
                     (fun w ->
                       match int_of_string_opt w with
                       | Some i when i >= 0 -> i
                       | _ -> failwith w)
                     words)
              with Failure w ->
                Result.Error
                  (Printf.sprintf "jobs: expected integers >= 0, got %S" w)
            in
            dropped := !dropped @ ids;
            fields rest
        | "deadline_ms", v -> (
            match float_of_text v with
            | Some d when d >= 0.0 ->
                deadline_ms := Some d;
                fields rest
            | Some _ | None ->
                Result.Error
                  (Printf.sprintf "deadline_ms: expected a number >= 0, got %S"
                     v))
        | "", _ -> fields rest
        | key, _ -> Result.Error (Printf.sprintf "unknown session field %S" key)
        )
  in
  let* () = fields body in
  let* sid =
    match !sid with
    | Some s -> Ok s
    | None -> Result.Error "session frame missing id"
  in
  let no_payload op_name =
    if !instance <> None then
      Result.Error (Printf.sprintf "%s takes no instance block" op_name)
    else if !added <> [] then
      Result.Error (Printf.sprintf "%s takes no job lines" op_name)
    else if !dropped <> [] then
      Result.Error (Printf.sprintf "%s takes no jobs line" op_name)
    else Ok ()
  in
  let* op =
    match !op with
    | None -> Result.Error "session frame missing op"
    | Some "create" -> (
        match !instance with
        | Some t when !added = [] && !dropped = [] -> Ok (S_create t)
        | Some _ -> Result.Error "create takes only an instance block"
        | None -> Result.Error "create needs an instance block")
    | Some "add-jobs" -> (
        match List.rev !added with
        | [] -> Result.Error "add-jobs needs at least one job line"
        | js when !instance = None && !dropped = [] -> Ok (S_add_jobs js)
        | _ -> Result.Error "add-jobs takes only job lines")
    | Some "drop-jobs" -> (
        match !dropped with
        | [] -> Result.Error "drop-jobs needs a jobs line"
        | ids when !instance = None && !added = [] -> Ok (S_drop_jobs ids)
        | _ -> Result.Error "drop-jobs takes only jobs lines")
    | Some "resolve" ->
        let* () = no_payload "resolve" in
        Ok (S_resolve { deadline_ms = !deadline_ms })
    | Some "close" ->
        let* () = no_payload "close" in
        Ok S_close
    | Some v ->
        Result.Error
          (Printf.sprintf
             "op: expected create|add-jobs|drop-jobs|resolve|close, got %S" v)
  in
  Ok (Session { sid; op; trace = !trace })

(* --- frames ------------------------------------------------------------- *)

(* One assembled frame, transport-agnostic: the header line plus the body
   lines up to (excluding) the [end] terminator. Every reader — the
   event loop, stdio, the client-side [read_response] — assembles frames
   with [Incremental] and decodes them from here, so there is one parse
   path. *)
type frame = { fheader : string; fbody : string list }

let frame_to_string { fheader; fbody } =
  let buf = Buffer.create 256 in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    (fheader :: fbody);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let bad_request_header header =
  Printf.sprintf
    "bad request header %S (expected %S, %S, %S, %S, %S, %S or %S)" header
    request_header stats_header events_header health_header explain_header
    session_header profile_header

let incoming_of_frame { fheader = header; fbody = body } =
  if header = request_header then
    Result.map (fun req -> Solve req) (parse_request body)
  else if header = stats_header then parse_stats body
  else if header = events_header then parse_events body
  else if header = health_header then parse_health body
  else if header = explain_header then parse_explain body
  else if header = session_header then parse_session body
  else if header = profile_header then parse_profile body
  else Result.Error (bad_request_header header)

(* --- incremental parsing ------------------------------------------------- *)

(* The one frame assembler. Bytes arrive in arbitrary chunks, possibly
   splitting a line — or the [payload] marker — anywhere; the parser
   accumulates them, cuts trimmed lines, and yields whole frames for
   {!incoming_of_frame}/{!response_of_frame}. Channel readers that
   already have whole lines push them straight into the same frame state
   machine. *)
module Incremental = struct
  type t = {
    mutable data : Bytes.t;
    mutable len : int;  (* valid bytes in [data] *)
    mutable pos : int;  (* consumed prefix *)
    (* open frame: header line + body lines so far (reversed) *)
    mutable cur : (string * string list) option;
  }

  let create () = { data = Bytes.empty; len = 0; pos = 0; cur = None }

  let feed t s =
    let n = String.length s in
    (* reclaim the consumed prefix before growing the buffer *)
    if t.pos > 0 && t.len + n > Bytes.length t.data then begin
      Bytes.blit t.data t.pos t.data 0 (t.len - t.pos);
      t.len <- t.len - t.pos;
      t.pos <- 0
    end;
    if t.len + n > Bytes.length t.data then begin
      let cap = ref (max 4096 (2 * Bytes.length t.data)) in
      while t.len + n > !cap do
        cap := 2 * !cap
      done;
      let data = Bytes.create !cap in
      Bytes.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    Bytes.blit_string s 0 t.data t.len n;
    t.len <- t.len + n

  (* a stream that ends without a trailing newline still delivers its
     tail bytes as one final line, as [input_line] does *)
  let finish t = if t.len > t.pos then feed t "\n"

  let in_frame t = t.cur <> None
  let buffered t = t.len - t.pos

  let push_line t line =
    let line = String.trim line in
    match t.cur with
    | None ->
        (* blank lines between frames are ignored *)
        if line <> "" then t.cur <- Some (line, []);
        None
    | Some (header, lines) ->
        if line = "end" then begin
          t.cur <- None;
          Some { fheader = header; fbody = List.rev lines }
        end
        else begin
          t.cur <- Some (header, line :: lines);
          None
        end

  let rec next_frame t =
    let rec newline i =
      if i >= t.len then None
      else if Bytes.get t.data i = '\n' then Some i
      else newline (i + 1)
    in
    match newline t.pos with
    | None -> None
    | Some i -> (
        let line = Bytes.sub_string t.data t.pos (i - t.pos) in
        t.pos <- i + 1;
        match push_line t line with
        | Some _ as frame -> frame
        | None -> next_frame t)

  let truncated_error = "truncated frame: missing \"end\" terminator"
end

let write_request oc (req : request) =
  output_string oc request_header;
  output_char oc '\n';
  Option.iter (fun s -> Printf.fprintf oc "solver %s\n" s) req.solver;
  Option.iter
    (fun d -> Printf.fprintf oc "deadline_ms %s\n" (float_to_text d))
    req.deadline_ms;
  Option.iter
    (fun tc -> Printf.fprintf oc "trace %s\n" (trace_to_text tc))
    req.trace;
  output_string oc "instance\n";
  output_string oc (Core.Instance_io.to_string req.instance);
  output_string oc "end\n";
  flush oc

let write_stats_request oc format =
  output_string oc stats_header;
  output_char oc '\n';
  Printf.fprintf oc "format %s\n" (stats_format_to_string format);
  output_string oc "end\n";
  flush oc

let write_events_request ?count ?level oc =
  output_string oc events_header;
  output_char oc '\n';
  Option.iter (fun n -> Printf.fprintf oc "count %d\n" n) count;
  Option.iter
    (fun l -> Printf.fprintf oc "level %s\n" (Obs.Event.level_to_string l))
    level;
  output_string oc "end\n";
  flush oc

let write_health_request oc =
  output_string oc health_header;
  output_char oc '\n';
  output_string oc "end\n";
  flush oc

let profile_action_name = function
  | P_status -> "status"
  | P_start -> "start"
  | P_stop -> "stop"
  | P_capture _ -> "capture"

let write_profile_request oc (pr : profile_request) =
  output_string oc profile_header;
  output_char oc '\n';
  Printf.fprintf oc "action %s\n" (profile_action_name pr.paction);
  (match pr.paction with
  | P_capture s -> Printf.fprintf oc "seconds %s\n" (float_to_text s)
  | P_status | P_start | P_stop -> ());
  Printf.fprintf oc "mode %s\n" (Obs.Profile.mode_to_string pr.pmode);
  Option.iter (fun r -> Printf.fprintf oc "rate %s\n" (float_to_text r)) pr.prate;
  Printf.fprintf oc "format %s\n" (Obs.Profile.format_to_string pr.pformat);
  Option.iter (fun i -> Printf.fprintf oc "id %s\n" i) pr.pfilter;
  output_string oc "end\n";
  flush oc

let write_explain_request oc id =
  output_string oc explain_header;
  output_char oc '\n';
  Printf.fprintf oc "id %s\n" id;
  output_string oc "end\n";
  flush oc

let bools_to_text e =
  String.concat "," (List.map (fun b -> if b then "1" else "0") (Array.to_list e))

let floats_to_text p =
  String.concat "," (List.map float_to_text (Array.to_list p))

let write_session_request oc (r : session_request) =
  output_string oc session_header;
  output_char oc '\n';
  Printf.fprintf oc "op %s\n" (session_op_name r.op);
  Printf.fprintf oc "id %s\n" r.sid;
  Option.iter
    (fun tc -> Printf.fprintf oc "trace %s\n" (trace_to_text tc))
    r.trace;
  (match r.op with
  | S_create instance ->
      output_string oc "instance\n";
      output_string oc (Core.Instance_io.to_string instance)
  | S_add_jobs jobs ->
      List.iter
        (fun (j : Core.Instance.new_job) ->
          Printf.fprintf oc "job size=%s class=%d" (float_to_text j.nsize)
            j.nclass;
          Option.iter
            (fun p -> Printf.fprintf oc " ptimes=%s" (floats_to_text p))
            j.nptimes;
          Option.iter
            (fun e -> Printf.fprintf oc " eligible=%s" (bools_to_text e))
            j.neligible;
          output_char oc '\n')
        jobs
  | S_drop_jobs ids ->
      output_string oc "jobs";
      List.iter (fun i -> Printf.fprintf oc " %d" i) ids;
      output_char oc '\n'
  | S_resolve { deadline_ms } ->
      Option.iter
        (fun d -> Printf.fprintf oc "deadline_ms %s\n" (float_to_text d))
        deadline_ms
  | S_close -> ());
  output_string oc "end\n";
  flush oc

(* --- responses ---------------------------------------------------------- *)

let response_to_string response =
  let buf = Buffer.create 256 in
  Buffer.add_string buf response_header;
  Buffer.add_char buf '\n';
  let payload body =
    Buffer.add_string buf "payload\n";
    Buffer.add_string buf body;
    if body <> "" && body.[String.length body - 1] <> '\n' then
      Buffer.add_char buf '\n'
  in
  (match response with
  | Error message ->
      Buffer.add_string buf "status error\n";
      (* the message must stay a single line to preserve framing *)
      let message =
        String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) message
      in
      Printf.bprintf buf "error %s\n" message
  | Stats_reply { format; body } ->
      Buffer.add_string buf "status stats\n";
      Printf.bprintf buf "format %s\n" (stats_format_to_string format);
      (* the payload is raw exposition text: its lines never consist of
         the bare word "end" (Prometheus lines carry a space, JSON lines
         punctuation), so the frame terminator stays unambiguous *)
      payload body
  | Events_reply { body } ->
      Buffer.add_string buf "status events\n";
      (* each payload line is a JSON object starting with '{', never the
         bare frame terminator *)
      payload body
  | Health_reply { body } ->
      Buffer.add_string buf "status health\n";
      (* each payload line starts with a known key (status, meter, slo,
         heartbeat, ...) followed by a space, never the bare "end" *)
      payload body
  | Explain_reply { body } ->
      Buffer.add_string buf "status explain\n";
      (* each payload line starts with a known key ([trace] or [phase])
         followed by a space, never the bare "end" *)
      payload body
  | Profile_reply { body } ->
      Buffer.add_string buf "status profile\n";
      (* each payload line carries a space (collapsed lines are "stack
         weight", status lines "key k=v ...", JSON objects punctuation),
         never the bare "end" terminator *)
      payload body
  | Session_reply s ->
      Buffer.add_string buf "status session\n";
      Printf.bprintf buf "id %s\n" s.sid;
      Printf.bprintf buf "op %s\n" s.op;
      (* one trace line per response: the echo lives on the session
         record, the embedded solve reply (when present) rides along *)
      Option.iter (fun tr -> Printf.bprintf buf "trace %s\n" tr) s.trace;
      Printf.bprintf buf "generation %d\n" s.generation;
      Printf.bprintf buf "jobs %d\n" s.jobs;
      Option.iter (fun m -> Printf.bprintf buf "mode %s\n" m) s.mode;
      Option.iter
        (fun (r : reply) ->
          Printf.bprintf buf "solver %s\n" r.solver;
          Printf.bprintf buf "cache %s\n" (if r.cache_hit then "hit" else "miss");
          Printf.bprintf buf "degraded %b\n" r.degraded;
          Printf.bprintf buf "makespan %g\n" r.makespan;
          Printf.bprintf buf "elapsed_us %d\n" r.elapsed_us;
          Buffer.add_string buf "assignment";
          Array.iter (fun i -> Printf.bprintf buf " %d" i) r.assignment;
          Buffer.add_char buf '\n')
        s.solve
  | Reply r ->
      Buffer.add_string buf "status ok\n";
      Option.iter (fun tr -> Printf.bprintf buf "trace %s\n" tr) r.trace;
      Printf.bprintf buf "solver %s\n" r.solver;
      Printf.bprintf buf "cache %s\n" (if r.cache_hit then "hit" else "miss");
      Printf.bprintf buf "degraded %b\n" r.degraded;
      Printf.bprintf buf "makespan %g\n" r.makespan;
      Printf.bprintf buf "elapsed_us %d\n" r.elapsed_us;
      Buffer.add_string buf "assignment";
      Array.iter (fun i -> Printf.bprintf buf " %d" i) r.assignment;
      Buffer.add_char buf '\n');
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let write_response oc response =
  output_string oc (response_to_string response);
  flush oc

let parse_reply fields =
  let find key = List.assoc_opt key fields in
  let require key =
    match find key with
    | Some v -> Ok v
    | None -> Result.Error (Printf.sprintf "response missing field %S" key)
  in
  let ( let* ) = Result.bind in
  let* solver = require "solver" in
  let* cache = require "cache" in
  let* cache_hit =
    match cache with
    | "hit" -> Ok true
    | "miss" -> Ok false
    | v -> Result.Error (Printf.sprintf "cache: expected hit|miss, got %S" v)
  in
  let* degraded_s = require "degraded" in
  let* degraded =
    match bool_of_string_opt degraded_s with
    | Some b -> Ok b
    | None ->
        Result.Error (Printf.sprintf "degraded: expected a bool, got %S" degraded_s)
  in
  let* makespan_s = require "makespan" in
  let* makespan =
    match float_of_string_opt makespan_s with
    | Some x -> Ok x
    | None ->
        Result.Error (Printf.sprintf "makespan: expected a number, got %S" makespan_s)
  in
  let* elapsed_s = require "elapsed_us" in
  let* elapsed_us =
    match int_of_string_opt elapsed_s with
    | Some x -> Ok x
    | None ->
        Result.Error
          (Printf.sprintf "elapsed_us: expected an integer, got %S" elapsed_s)
  in
  let* assignment_s = require "assignment" in
  let* assignment =
    let words =
      String.split_on_char ' ' assignment_s |> List.filter (( <> ) "")
    in
    try Ok (Array.of_list (List.map int_of_string words))
    with Failure _ -> Result.Error "assignment: expected integers"
  in
  let trace = find "trace" in
  Ok { solver; cache_hit; degraded; makespan; elapsed_us; assignment; trace }

let bad_response_header header =
  Printf.sprintf "bad response header %S (expected %S)" header response_header

(* the payload is every line after the marker, verbatim; the writer
   guarantees a trailing newline, restored here so bodies roundtrip *)
let payload_after_marker body =
  let rec after = function
    | [] -> None
    | "payload" :: rest -> Some rest
    | _ :: rest -> after rest
  in
  match after body with
  | None -> None
  | Some [] -> Some ""
  | Some ls -> Some (String.concat "\n" ls ^ "\n")

let response_of_frame { fheader = header; fbody = body } =
  if header <> response_header then Result.Error (bad_response_header header)
  else
    let fields = List.map split_first body in
    match List.assoc_opt "status" fields with
    | Some "error" ->
        Ok
          (Error
             (Option.value ~default:"unspecified error"
                (List.assoc_opt "error" fields)))
    | Some "ok" -> (
        match parse_reply fields with
        | Ok r -> Ok (Reply r)
        | Result.Error e -> Result.Error e)
    | Some "stats" -> (
        let format =
          Option.bind (List.assoc_opt "format" fields) stats_format_of_string
        in
        match format with
        | None -> Result.Error "stats response missing format"
        | Some format -> (
            (* the payload is every line after the marker, verbatim *)
            match payload_after_marker body with
            | None -> Result.Error "stats response missing payload"
            | Some body -> Ok (Stats_reply { format; body })))
    | Some "events" -> (
        match payload_after_marker body with
        | None -> Result.Error "events response missing payload"
        | Some body -> Ok (Events_reply { body }))
    | Some "health" -> (
        match payload_after_marker body with
        | None -> Result.Error "health response missing payload"
        | Some body -> Ok (Health_reply { body }))
    | Some "explain" -> (
        match payload_after_marker body with
        | None -> Result.Error "explain response missing payload"
        | Some body -> Ok (Explain_reply { body }))
    | Some "profile" -> (
        match payload_after_marker body with
        | None -> Result.Error "profile response missing payload"
        | Some body -> Ok (Profile_reply { body }))
    | Some "session" ->
        let ( let* ) = Result.bind in
        let require key =
          match List.assoc_opt key fields with
          | Some v -> Ok v
          | None ->
              Result.Error
                (Printf.sprintf "session response missing field %S" key)
        in
        let int_field key =
          let* v = require key in
          match int_of_string_opt v with
          | Some x -> Ok x
          | None ->
              Result.Error
                (Printf.sprintf "%s: expected an integer, got %S" key v)
        in
        let* sid = require "id" in
        let* op = require "op" in
        let* generation = int_field "generation" in
        let* jobs = int_field "jobs" in
        let mode = List.assoc_opt "mode" fields in
        let trace = List.assoc_opt "trace" fields in
        let* solve =
          if mode = None then Ok None
          else
            let* r = parse_reply fields in
            Ok (Some r)
        in
        Ok (Session_reply { sid; op; generation; jobs; mode; solve; trace })
    | Some v -> Result.Error (Printf.sprintf "unknown status %S" v)
    | None -> Result.Error "response missing status"

let read_response ic =
  let parser = Incremental.create () in
  let rec go () =
    match input_line ic with
    | exception End_of_file ->
        if Incremental.in_frame parser then
          Result.Error Incremental.truncated_error
        else Ok None
    | line -> (
        match Incremental.push_line parser line with
        | None -> go ()
        | Some frame -> Result.map Option.some (response_of_frame frame))
  in
  go ()
