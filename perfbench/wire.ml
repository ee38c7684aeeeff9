(* The wire side of the benchmark: request frames as exact bytes, the
   server process, and the one client connection.

   Frames are serialized before timing, byte-for-byte what
   [Serve.Proto.write_request] / [write_session_request] emit for the
   same request, so the timed loop only writes bytes and parses
   replies. *)

module P = Serve.Proto

let float_text x = if x = infinity then "inf" else Printf.sprintf "%.17g" x

let solve_frame inst =
  "request v1\ninstance\n" ^ Core.Instance_io.to_string inst ^ "end\n"

let session_frame ~sid op body =
  Printf.sprintf "session v1\nop %s\nid %s\n%send\n" op sid body

let create_frame ~sid inst =
  session_frame ~sid "create" ("instance\n" ^ Core.Instance_io.to_string inst)

let add_frame ~sid (j : Core.Instance.new_job) =
  let column f = function
    | None -> ""
    | Some a -> String.concat "," (List.map f (Array.to_list a))
  in
  let opt key f v =
    match v with None -> "" | Some _ -> Printf.sprintf " %s=%s" key (column f v)
  in
  session_frame ~sid "add-jobs"
    (Printf.sprintf "job size=%s class=%d%s%s\n" (float_text j.nsize) j.nclass
       (opt "ptimes" float_text j.nptimes)
       (opt "eligible" (fun b -> if b then "1" else "0") j.neligible))

let drop_frame ~sid job = session_frame ~sid "drop-jobs" (Printf.sprintf "jobs %d\n" job)
let resolve_frame ~sid = session_frame ~sid "resolve" ""
let stats_frame = "stats v1\nformat prometheus\nend\n"
let health_frame = "health v1\nend\n"

(* --- the server process --------------------------------------------------- *)

type server = { pid : int; port : int }

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let banner_port log =
  let marker = "serving on 127.0.0.1:" in
  let text = read_file log in
  let lm = String.length marker in
  let rec find i =
    if i + lm > String.length text then None
    else if String.sub text i lm = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
      let rest = String.sub text (i + String.length marker)
          (String.length text - i - String.length marker) in
      match String.index_opt rest '\n' with
      | None -> None
      | Some nl -> int_of_string_opt (String.sub rest 0 nl))

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Terminate and reap: SIGTERM, then SIGKILL after five seconds. *)
let stop { pid; _ } =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    if exited pid then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

(* Every live server, so an exception or an early exit never leaves one
   running. *)
let live : server list ref = ref []

let stop_all () =
  List.iter stop !live;
  live := []

let spawn ~exe ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (exe :: "serve" :: "--tcp" :: "127.0.0.1:0" :: args) in
  let pid = Unix.create_process exe argv null out out in
  Unix.close out;
  Unix.close null;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec await () =
    match banner_port log with
    | Some port ->
        let s = { pid; port } in
        live := s :: !live;
        s
    | None ->
        if exited pid then
          failwith ("server exited before listening: " ^ String.trim (read_file log))
        else if Unix.gettimeofday () > deadline then begin
          stop { pid; port = 0 };
          failwith "server did not report a listening port within 60s"
        end
        else begin
          Unix.sleepf 0.001;
          await ()
        end
  in
  await ()

let release s =
  stop s;
  live := List.filter (fun x -> x.pid <> s.pid) !live

(* utime + stime of the whole process, in clock ticks (100 Hz on Linux). *)
let cpu_ms { pid; _ } =
  let text = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  match String.rindex_opt text ')' with
  | None -> nan
  | Some i ->
      let fields =
        String.split_on_char ' '
          (String.sub text (i + 2) (String.length text - i - 2))
      in
      (* fields after the command: state is #3 overall, utime #14, stime #15 *)
      let field k = float_of_string (List.nth fields (k - 3)) in
      (field 14 +. field 15) *. 10.0

let peak_rss_mb { pid; _ } =
  let text = read_file (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match Scanf.sscanf_opt (String.trim v) "%f kB" Fun.id with
          | Some kb -> kb /. 1024.0
          | None -> acc)
      | _ -> acc)
    nan
    (String.split_on_char '\n' text)

(* --- the client connection ------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel }

let connect s =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = close_out_noerr c.oc

(* One frame in flight: write it, read its reply. Transport failures
   come back as [Error]. *)
let exchange c frame =
  match
    output_string c.oc frame;
    flush c.oc;
    P.read_response c.ic
  with
  | Ok (Some r) -> Ok r
  | Ok None -> Error "server closed the connection"
  | Error msg -> Error ("unparsable reply: " ^ msg)
  | exception (Sys_error msg | Failure msg) -> Error ("transport: " ^ msg)
  | exception End_of_file -> Error "transport: end of file"

let scrape c =
  match exchange c stats_frame with
  | Ok (P.Stats_reply { body; _ }) -> Ok (Serve.Scrape.parse_prometheus body)
  | Ok _ -> Error "stats frame answered with another reply"
  | Error e -> Error e

let health c =
  match exchange c health_frame with
  | Ok (P.Health_reply { body }) -> (
      match List.assoc_opt "status" (Serve.Scrape.health_lines body) with
      | Some s -> Ok s
      | None -> Error "health payload without a status line")
  | Ok _ -> Error "health frame answered with another reply"
  | Error e -> Error e
