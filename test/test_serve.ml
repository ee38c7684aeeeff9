(* Tests for the serving layer: canonicalization, the LRU result cache,
   deadline-aware dispatch, the wire protocol and the server loop. *)

let rng seed = Workloads.Rng.create seed

let generators =
  [
    ( "identical",
      fun r -> Workloads.Gen.identical r ~n:10 ~m:3 ~k:3 () );
    ("uniform", fun r -> Workloads.Gen.uniform r ~n:10 ~m:3 ~k:3 ());
    ("unrelated", fun r -> Workloads.Gen.unrelated r ~n:10 ~m:3 ~k:3 ());
    ( "restricted",
      fun r -> Workloads.Gen.restricted_class_uniform r ~n:10 ~m:3 ~k:3 () );
    ( "cu-ptimes",
      fun r -> Workloads.Gen.class_uniform_ptimes r ~n:10 ~m:3 ~k:3 () );
  ]

(* --- Canon -------------------------------------------------------------- *)

let test_canon_permutation_invariance () =
  List.iter
    (fun (name, gen) ->
      for seed = 1 to 12 do
        let r = rng seed in
        let inst = gen r in
        let key = Serve.Canon.key inst in
        for trial = 1 to 4 do
          let shuffled = Serve.Canon.shuffle r inst in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d trial %d" name seed trial)
            key
            (Serve.Canon.key shuffled)
        done
      done)
    generators

let test_canon_prehash_collides_on_permutations () =
  List.iter
    (fun (name, gen) ->
      for seed = 1 to 12 do
        let r = rng (200 + seed) in
        let inst = gen r in
        let ph = Serve.Canon.prehash inst in
        for trial = 1 to 4 do
          let shuffled = Serve.Canon.shuffle r inst in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d trial %d" name seed trial)
            ph
            (Serve.Canon.prehash shuffled)
        done
      done)
    generators

let test_canon_prehash_roundtrip_store () =
  (* the skip path stores under the canonical key via
     assignment_to_canonical; check the two translations invert *)
  List.iter
    (fun (name, gen) ->
      let inst = gen (rng 77) in
      let canon = Serve.Canon.canonicalize inst in
      let result = Algos.List_scheduling.schedule inst in
      let original = Core.Schedule.assignment result.Algos.Common.schedule in
      let back =
        Serve.Canon.assignment_to_original canon
          (Serve.Canon.assignment_to_canonical canon original)
      in
      Alcotest.(check (array int)) (name ^ " roundtrip") original back)
    generators

let test_canon_is_idempotent () =
  List.iter
    (fun (name, gen) ->
      let inst = gen (rng 99) in
      let c = Serve.Canon.canonicalize inst in
      let c2 = Serve.Canon.canonicalize c.Serve.Canon.instance in
      Alcotest.(check string) (name ^ " fixpoint")
        (Core.Instance_io.to_string c.Serve.Canon.instance)
        (Core.Instance_io.to_string c2.Serve.Canon.instance))
    generators

let test_canon_schedule_mapping () =
  List.iter
    (fun (name, gen) ->
      for seed = 1 to 8 do
        let r = rng (100 + seed) in
        let original = gen r in
        let shuffled = Serve.Canon.shuffle r original in
        let canon = Serve.Canon.canonicalize shuffled in
        (* solve the canonical instance, then map the schedule back into
           the shuffled instance's labeling *)
        let result = Algos.List_scheduling.schedule canon.Serve.Canon.instance in
        let back =
          Serve.Canon.assignment_to_original canon
            (Core.Schedule.assignment result.Algos.Common.schedule)
        in
        let sched = Core.Schedule.make shuffled back in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d valid" name seed)
          true
          (Core.Schedule.is_valid shuffled sched);
        let m1 = result.Algos.Common.makespan in
        let m2 = Core.Schedule.makespan sched in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d makespan preserved" name seed)
          true
          (Float.abs (m1 -. m2) <= 1e-9 *. Float.max 1.0 (Float.max m1 m2))
      done)
    generators

(* --- Cache -------------------------------------------------------------- *)

let counter name =
  match Obs.Counter.find name with
  | Some c -> Obs.Counter.value c
  | None -> 0

let test_cache_lru () =
  let cache = Serve.Cache.create ~capacity:2 in
  let hits0 = counter "serve.cache_hits" in
  let misses0 = counter "serve.cache_misses" in
  let evictions0 = counter "serve.cache_evictions" in
  Serve.Cache.put cache "a" 1;
  Serve.Cache.put cache "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Serve.Cache.find cache "a");
  (* b is now least recently used; inserting c evicts it *)
  Serve.Cache.put cache "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Cache.find cache "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Cache.find cache "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Cache.find cache "c");
  Alcotest.(check int) "length" 2 (Serve.Cache.length cache);
  Alcotest.(check int) "hits counted" (hits0 + 3) (counter "serve.cache_hits");
  Alcotest.(check int) "misses counted" (misses0 + 1)
    (counter "serve.cache_misses");
  Alcotest.(check int) "evictions counted" (evictions0 + 1)
    (counter "serve.cache_evictions")

let test_cache_evict_event () =
  (* an eviction leaves a flight-recorder event carrying the evicted
     entry's age and hit count, and the size gauge tracks the table *)
  Obs.Event.clear ();
  Fun.protect
    ~finally:(fun () -> Obs.Event.clear ())
    (fun () ->
      let cache = Serve.Cache.create ~capacity:2 in
      Serve.Cache.put cache "a" 1;
      Serve.Cache.put cache "b" 2;
      ignore (Serve.Cache.find cache "a");
      ignore (Serve.Cache.find cache "a");
      Serve.Cache.put cache "c" 3;
      (* "b" (never hit) was the LRU *)
      let g = Obs.Gauge.make "serve.cache_size" in
      Alcotest.(check (float 1e-9)) "size gauge" 2.0 (Obs.Gauge.value g);
      match
        List.filter
          (fun e -> e.Obs.Event.name = "serve.cache.evict")
          (Obs.Event.snapshot ())
      with
      | [ e ] -> (
          (match List.assoc_opt "hits" e.Obs.Event.fields with
          | Some (Obs.Event.Int 0) -> ()
          | _ -> Alcotest.fail "evicted entry was never hit");
          match List.assoc_opt "age_s" e.Obs.Event.fields with
          | Some (Obs.Event.Float age) ->
              Alcotest.(check bool) "age is sane" true
                (age >= 0.0 && age < 60.0)
          | _ -> Alcotest.fail "no age_s field on the eviction event")
      | evs ->
          Alcotest.failf "expected 1 eviction event, got %d" (List.length evs))

let test_cache_overwrite () =
  let cache = Serve.Cache.create ~capacity:2 in
  Serve.Cache.put cache "k" 1;
  Serve.Cache.put cache "k" 2;
  Alcotest.(check (option int)) "overwritten" (Some 2)
    (Serve.Cache.find cache "k");
  Alcotest.(check int) "no duplicate" 1 (Serve.Cache.length cache)

(* --- Dispatch ----------------------------------------------------------- *)

let test_dispatch_exact_small () =
  let inst = Workloads.Gen.uniform (rng 7) ~n:8 ~m:3 ~k:3 () in
  match Serve.Dispatch.solve ~hint:"exact" inst with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check bool) "not degraded" false o.Serve.Dispatch.degraded;
      let exact = Algos.Exact.makespan inst in
      Alcotest.(check (float 1e-9)) "optimal makespan" exact
        o.Serve.Dispatch.result.Algos.Common.makespan

let test_dispatch_deadline_degrades () =
  let inst = Workloads.Gen.uniform (rng 8) ~n:400 ~m:8 ~k:12 () in
  match Serve.Dispatch.solve ~hint:"portfolio" ~deadline_ms:0.0 inst with
  | Error msg -> Alcotest.fail msg
  | Ok o ->
      Alcotest.(check bool) "degraded" true o.Serve.Dispatch.degraded;
      Alcotest.(check bool) "valid schedule" true
        (Core.Schedule.is_valid inst
           o.Serve.Dispatch.result.Algos.Common.schedule)

let test_dispatch_unknown_solver () =
  let inst = Workloads.Gen.uniform (rng 9) ~n:6 ~m:2 ~k:2 () in
  match Serve.Dispatch.solve ~hint:"simplex-magic" inst with
  | Error msg ->
      Alcotest.(check bool) "names the solver" true
        (Astring.String.is_infix ~affix:"simplex-magic" msg)
  | Ok _ -> Alcotest.fail "expected an error"

let test_dispatch_lpt_inapplicable () =
  let inst = Workloads.Gen.unrelated (rng 10) ~n:8 ~m:3 ~k:3 () in
  match Serve.Dispatch.solve ~hint:"lpt" inst with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lpt should not apply to unrelated machines"

(* --- Proto -------------------------------------------------------------- *)

let roundtrip_via_file write read =
  let path = Filename.temp_file "serve_proto" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      write oc;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic))

(* The next frame of a channel, assembled and decoded the way the
   transports do it; [Ok None] at a clean end of stream. *)
let next_incoming ic =
  let parser = Serve.Proto.Incremental.create () in
  let rec go () =
    match input_line ic with
    | exception End_of_file ->
        if Serve.Proto.Incremental.in_frame parser then
          Error Serve.Proto.Incremental.truncated_error
        else Ok None
    | line -> (
        match Serve.Proto.Incremental.push_line parser line with
        | None -> go ()
        | Some frame ->
            Result.map Option.some (Serve.Proto.incoming_of_frame frame))
  in
  go ()

let next_request ic =
  match next_incoming ic with
  | Ok (Some (Serve.Proto.Solve req)) -> Ok (Some req)
  | Ok (Some _) -> Error "not a request frame"
  | Ok None -> Ok None
  | Error msg -> Error msg

let test_proto_request_roundtrip () =
  let inst = Workloads.Gen.identical (rng 11) ~n:5 ~m:2 ~k:2 () in
  let req =
    {
      Serve.Proto.solver = Some "exact";
      deadline_ms = Some 25.0;
      instance = inst; trace = None
    }
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_request oc req;
        Serve.Proto.write_request oc { req with solver = None; deadline_ms = None })
      (fun ic ->
        let a = next_request ic in
        let b = next_request ic in
        let c = next_request ic in
        (a, b, c))
  with
  | Ok (Some a), Ok (Some b), Ok None ->
      Alcotest.(check (option string)) "solver" (Some "exact") a.Serve.Proto.solver;
      Alcotest.(check bool) "deadline" true (a.Serve.Proto.deadline_ms = Some 25.0);
      Alcotest.(check string) "instance roundtrips"
        (Core.Instance_io.to_string inst)
        (Core.Instance_io.to_string a.Serve.Proto.instance);
      Alcotest.(check (option string)) "defaults" None b.Serve.Proto.solver
  | _ -> Alcotest.fail "unexpected roundtrip shape"

let test_proto_response_roundtrip () =
  let reply =
    Serve.Proto.Reply
      {
        solver = "exact";
        cache_hit = true;
        degraded = false;
        makespan = 117.25;
        elapsed_us = 42;
        assignment = [| 0; 1; 1; 0 |];
        trace = None;
      }
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc reply;
        Serve.Proto.write_response oc (Serve.Proto.Error "bad things\nhappened"))
      (fun ic ->
        let a = Serve.Proto.read_response ic in
        let b = Serve.Proto.read_response ic in
        let c = Serve.Proto.read_response ic in
        (a, b, c))
  with
  | Ok (Some (Serve.Proto.Reply r)), Ok (Some (Serve.Proto.Error msg)), Ok None
    ->
      Alcotest.(check string) "solver" "exact" r.Serve.Proto.solver;
      Alcotest.(check bool) "hit" true r.Serve.Proto.cache_hit;
      Alcotest.(check (float 1e-9)) "makespan" 117.25 r.Serve.Proto.makespan;
      Alcotest.(check bool) "assignment" true (r.Serve.Proto.assignment = [| 0; 1; 1; 0 |]);
      (* newline was flattened to keep the framing intact *)
      Alcotest.(check string) "error single line" "bad things happened" msg
  | _ -> Alcotest.fail "unexpected roundtrip shape"

let test_proto_trace_roundtrip () =
  (* the trace field survives both frame kinds, with and without a
     parent span, and replies echo the adopted id *)
  let inst = Workloads.Gen.identical (rng 31) ~n:4 ~m:2 ~k:2 () in
  let req tr =
    {
      Serve.Proto.solver = None;
      deadline_ms = None;
      instance = inst;
      trace = tr;
    }
  in
  (match
     roundtrip_via_file
       (fun oc ->
         Serve.Proto.write_request oc
           (req (Some { Serve.Proto.tid = "lg7.3"; parent = Some 12 }));
         Serve.Proto.write_request oc
           (req (Some { Serve.Proto.tid = "cli-a"; parent = None }));
         Serve.Proto.write_request oc (req None))
       (fun ic ->
         let a = next_request ic in
         let b = next_request ic in
         let c = next_request ic in
         (a, b, c))
   with
  | Ok (Some a), Ok (Some b), Ok (Some c) ->
      (match a.Serve.Proto.trace with
      | Some { Serve.Proto.tid = "lg7.3"; parent = Some 12 } -> ()
      | _ -> Alcotest.fail "trace with parent did not roundtrip");
      (match b.Serve.Proto.trace with
      | Some { Serve.Proto.tid = "cli-a"; parent = None } -> ()
      | _ -> Alcotest.fail "trace without parent did not roundtrip");
      Alcotest.(check bool) "absent trace stays absent" true
        (c.Serve.Proto.trace = None)
  | _ -> Alcotest.fail "unexpected trace roundtrip shape");
  (* a reply's trace line roundtrips *)
  (match
     roundtrip_via_file
       (fun oc ->
         Serve.Proto.write_response oc
           (Serve.Proto.Reply
              {
                solver = "greedy";
                cache_hit = false;
                degraded = false;
                makespan = 9.0;
                elapsed_us = 7;
                assignment = [| 0 |];
                trace = Some "lg7.3";
              }))
       Serve.Proto.read_response
   with
  | Ok (Some (Serve.Proto.Reply r)) ->
      Alcotest.(check (option string)) "reply echoes trace" (Some "lg7.3")
        r.Serve.Proto.trace
  | _ -> Alcotest.fail "reply with trace did not roundtrip");
  (* session frames carry the trace too *)
  (match
     roundtrip_via_file
       (fun oc ->
         Serve.Proto.write_session_request oc
           {
             Serve.Proto.sid = "s1";
             op = Serve.Proto.S_close;
             trace = Some { Serve.Proto.tid = "lg7.3"; parent = Some 4 };
           })
       next_incoming
   with
  | Ok (Some (Serve.Proto.Session sreq)) -> (
      match sreq.Serve.Proto.trace with
      | Some { Serve.Proto.tid = "lg7.3"; parent = Some 4 } -> ()
      | _ -> Alcotest.fail "session trace did not roundtrip")
  | _ -> Alcotest.fail "session frame did not roundtrip");
  (* malformed trace ids are rejected, and the stream resyncs *)
  List.iter
    (fun field ->
      let text =
        Printf.sprintf "request v1\n%s\ninstance\n%send\n" field
          (Core.Instance_io.to_string inst)
      in
      match
        roundtrip_via_file
          (fun oc -> output_string oc text)
          next_request
      with
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S rejected with a trace error" field)
            true
            (Astring.String.is_infix ~affix:"trace" msg)
      | Ok _ -> Alcotest.failf "%S should not parse" field)
    [ "trace bad id"; "trace ok/notanint"; "trace ok/-3"; "trace " ]

let test_proto_explain_roundtrip () =
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_explain_request oc "lg7.3";
        Serve.Proto.write_response oc
          (Serve.Proto.Explain_reply
             { body = "trace id=lg7.3 spans=1\nphase depth=0 name=a\n" }))
      (fun ic ->
        let frame = next_incoming ic in
        let resp = Serve.Proto.read_response ic in
        (frame, resp))
  with
  | ( Ok (Some (Serve.Proto.Explain id)),
      Ok (Some (Serve.Proto.Explain_reply { body })) ) ->
      Alcotest.(check string) "explain id" "lg7.3" id;
      Alcotest.(check bool) "payload body intact" true
        (Astring.String.is_prefix ~affix:"trace id=lg7.3" body)
  | _ -> Alcotest.fail "explain frame did not roundtrip"

let test_proto_malformed_resync () =
  (* a malformed frame is consumed up to "end"; the next request parses *)
  let inst = Workloads.Gen.identical (rng 12) ~n:4 ~m:2 ~k:2 () in
  let text =
    "banana v9\nsolver exact\nend\n"
    ^ "request v1\ninstance\nnot a keyword\nend\n"
  in
  let good =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "request v1\ninstance\n";
    Buffer.add_string buf (Core.Instance_io.to_string inst);
    Buffer.add_string buf "end\n";
    Buffer.contents buf
  in
  match
    roundtrip_via_file
      (fun oc -> output_string oc (text ^ good))
      (fun ic ->
        let a = next_request ic in
        let b = next_request ic in
        let c = next_request ic in
        (a, b, c))
  with
  | Error bad_header, Error bad_instance, Ok (Some _) ->
      Alcotest.(check bool) "names header" true
        (Astring.String.is_infix ~affix:"banana" bad_header);
      Alcotest.(check bool) "names keyword" true
        (Astring.String.is_infix ~affix:"keyword" bad_instance)
  | _ -> Alcotest.fail "expected error, error, ok"

let test_proto_stats_roundtrip () =
  (* stats frames both ways: the admin request parses, and a
     Stats_reply carries a multi-line exposition body intact *)
  let body = "# TYPE serve_requests counter\nserve_requests{status=\"ok\"} 41\n" in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_stats_request oc Serve.Proto.Prometheus;
        Serve.Proto.write_stats_request oc Serve.Proto.Json)
      (fun ic ->
        let a = next_incoming ic in
        let b = next_incoming ic in
        let c = next_incoming ic in
        (a, b, c))
  with
  | ( Ok (Some (Serve.Proto.Stats Serve.Proto.Prometheus)),
      Ok (Some (Serve.Proto.Stats Serve.Proto.Json)),
      Ok None ) -> (
      match
        roundtrip_via_file
          (fun oc ->
            Serve.Proto.write_response oc
              (Serve.Proto.Stats_reply
                 { format = Serve.Proto.Prometheus; body }))
          Serve.Proto.read_response
      with
      | Ok (Some (Serve.Proto.Stats_reply { format; body = got })) ->
          Alcotest.(check bool) "format" true (format = Serve.Proto.Prometheus);
          Alcotest.(check string) "multi-line body intact" body got
      | _ -> Alcotest.fail "expected a stats reply")
  | _ -> Alcotest.fail "stats frames did not roundtrip"

let test_proto_events_roundtrip () =
  (* events frames both ways: defaults and explicit count/level both
     parse, and an Events_reply carries its JSON-lines body intact *)
  (match
     roundtrip_via_file
       (fun oc ->
         Serve.Proto.write_events_request oc;
         Serve.Proto.write_events_request ~count:7 ~level:Obs.Event.Warn oc)
       (fun ic ->
         let a = next_incoming ic in
         let b = next_incoming ic in
         let c = next_incoming ic in
         (a, b, c))
   with
  | ( Ok (Some (Serve.Proto.Events { count = None; min_level = Obs.Event.Debug })),
      Ok
        (Some (Serve.Proto.Events { count = Some 7; min_level = Obs.Event.Warn })),
      Ok None ) -> ()
  | _ -> Alcotest.fail "events frames did not roundtrip");
  let body =
    "{\"ts_us\":1.000,\"level\":\"info\",\"name\":\"a\",\"domain\":0}\n"
    ^ "{\"ts_us\":2.000,\"level\":\"warn\",\"name\":\"b\",\"domain\":1,\"req\":\"r9\"}\n"
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc (Serve.Proto.Events_reply { body }))
      Serve.Proto.read_response
  with
  | Ok (Some (Serve.Proto.Events_reply { body = got })) ->
      Alcotest.(check string) "multi-line body intact" body got
  | _ -> Alcotest.fail "expected an events reply"

let test_proto_health_roundtrip () =
  (* health frames both ways: the admin request parses, and a
     Health_reply carries its multi-line payload intact *)
  (match
     roundtrip_via_file
       (fun oc -> Serve.Proto.write_health_request oc)
       (fun ic ->
         let a = next_incoming ic in
         let b = next_incoming ic in
         (a, b))
   with
  | Ok (Some Serve.Proto.Health), Ok None -> ()
  | _ -> Alcotest.fail "health frame did not roundtrip");
  let body =
    "status ok\nliveness ok\ntask_budget_s 30\n"
    ^ "meter name=cache fill=0.125\n"
    ^ "heartbeat domain=0 state=waiting task=- req=- beat_age_s=0.010 \
       task_age_s=0.000\n"
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc (Serve.Proto.Health_reply { body }))
      Serve.Proto.read_response
  with
  | Ok (Some (Serve.Proto.Health_reply { body = got })) ->
      Alcotest.(check string) "multi-line body intact" body got
  | _ -> Alcotest.fail "expected a health reply"

let test_proto_session_roundtrip () =
  let inst = Workloads.Gen.unrelated (rng 14) ~n:4 ~m:2 ~k:2 () in
  let frames =
    [
      { Serve.Proto.sid = "s-1"; op = Serve.Proto.S_create inst; trace = None };
      {
        Serve.Proto.sid = "s-1";
        op =
          Serve.Proto.S_add_jobs
            [
              {
                Core.Instance.nsize = 3.5;
                nclass = 1;
                nptimes = Some [| 2.0; infinity |];
                neligible = None;
              };
            ]; trace = None
      };
      { Serve.Proto.sid = "s-1"; op = Serve.Proto.S_drop_jobs [ 0; 2 ]; trace = None };
      {
        Serve.Proto.sid = "s-1";
        op = Serve.Proto.S_resolve { deadline_ms = Some 12.5 }; trace = None
      };
      { Serve.Proto.sid = "s-1"; op = Serve.Proto.S_close; trace = None };
    ]
  in
  let read_all ic =
    List.fold_left
      (fun acc _ -> next_incoming ic :: acc)
      [] frames
    |> List.rev
  in
  let got =
    roundtrip_via_file
      (fun oc -> List.iter (Serve.Proto.write_session_request oc) frames)
      read_all
  in
  List.iter2
    (fun (sent : Serve.Proto.session_request) received ->
      match received with
      | Ok (Some (Serve.Proto.Session r)) -> (
          Alcotest.(check string) "sid" sent.Serve.Proto.sid r.Serve.Proto.sid;
          Alcotest.(check string) "op name"
            (Serve.Proto.session_op_name sent.Serve.Proto.op)
            (Serve.Proto.session_op_name r.Serve.Proto.op);
          match (sent.Serve.Proto.op, r.Serve.Proto.op) with
          | Serve.Proto.S_create a, Serve.Proto.S_create b ->
              Alcotest.(check string) "instance"
                (Core.Instance_io.to_string a)
                (Core.Instance_io.to_string b)
          | Serve.Proto.S_add_jobs a, Serve.Proto.S_add_jobs b ->
              Alcotest.(check int) "job count" (List.length a) (List.length b);
              List.iter2
                (fun (x : Core.Instance.new_job) (y : Core.Instance.new_job) ->
                  Alcotest.(check (float 1e-9))
                    "size" x.Core.Instance.nsize y.Core.Instance.nsize;
                  Alcotest.(check int) "class" x.Core.Instance.nclass
                    y.Core.Instance.nclass;
                  Alcotest.(check bool) "ptimes" true
                    (x.Core.Instance.nptimes = y.Core.Instance.nptimes))
                a b
          | Serve.Proto.S_drop_jobs a, Serve.Proto.S_drop_jobs b ->
              Alcotest.(check (list int)) "ids" a b
          | Serve.Proto.S_resolve a, Serve.Proto.S_resolve b ->
              Alcotest.(check bool) "deadline" true
                (a.deadline_ms = b.deadline_ms)
          | Serve.Proto.S_close, Serve.Proto.S_close -> ()
          | _ -> Alcotest.fail "op kind changed in flight")
      | _ -> Alcotest.fail "expected a session frame")
    frames got;
  (* replies both ways: a bare ack and a resolve carrying a schedule *)
  let ack =
    Serve.Proto.Session_reply
      {
        Serve.Proto.sid = "s-1";
        op = "add-jobs";
        generation = 3;
        jobs = 5;
        mode = None;
        solve = None; trace = None
      }
  in
  let resolved =
    Serve.Proto.Session_reply
      {
        Serve.Proto.sid = "s-1";
        op = "resolve";
        generation = 3;
        jobs = 2;
        mode = Some "repair";
        solve =
          Some
            {
              Serve.Proto.solver = "incremental-repair";
              cache_hit = false;
              degraded = false;
              makespan = 9.75;
              elapsed_us = 11;
              assignment = [| 1; 0 |]; trace = None
            }; trace = None
      }
  in
  match
    roundtrip_via_file
      (fun oc ->
        Serve.Proto.write_response oc ack;
        Serve.Proto.write_response oc resolved)
      (fun ic ->
        let a = Serve.Proto.read_response ic in
        let b = Serve.Proto.read_response ic in
        (a, b))
  with
  | ( Ok (Some (Serve.Proto.Session_reply a)),
      Ok (Some (Serve.Proto.Session_reply b)) ) ->
      Alcotest.(check string) "ack op" "add-jobs" a.Serve.Proto.op;
      Alcotest.(check int) "ack generation" 3 a.Serve.Proto.generation;
      Alcotest.(check bool) "ack has no schedule" true
        (a.Serve.Proto.solve = None);
      Alcotest.(check (option string)) "mode" (Some "repair")
        b.Serve.Proto.mode;
      (match b.Serve.Proto.solve with
      | Some r ->
          Alcotest.(check string) "solver" "incremental-repair"
            r.Serve.Proto.solver;
          Alcotest.(check (float 1e-9)) "makespan" 9.75 r.Serve.Proto.makespan;
          Alcotest.(check bool) "assignment" true
            (r.Serve.Proto.assignment = [| 1; 0 |])
      | None -> Alcotest.fail "resolve reply lost its schedule")
  | _ -> Alcotest.fail "session replies did not roundtrip"

let test_proto_session_resync () =
  (* malformed session frames mid-stream are consumed up to "end"; the
     stream then yields the next well-formed frame *)
  let inst = Workloads.Gen.identical (rng 15) ~n:4 ~m:2 ~k:2 () in
  let bad =
    [
      (* unknown op *)
      "session v1\nop explode\nid s-1\nend\n";
      (* missing id *)
      "session v1\nop resolve\nend\n";
      (* bad sid characters *)
      "session v1\nop close\nid has spaces!\nend\n";
      (* add-jobs with a broken job spec *)
      "session v1\nop add-jobs\nid s-1\njob size=banana\nend\n";
      (* create without an instance *)
      "session v1\nop create\nid s-1\nend\n";
    ]
  in
  let good oc =
    Serve.Proto.write_session_request oc
      { Serve.Proto.sid = "s-2"; op = Serve.Proto.S_create inst; trace = None }
  in
  List.iter
    (fun frame ->
      match
        roundtrip_via_file
          (fun oc ->
            output_string oc frame;
            good oc)
          (fun ic ->
            let a = next_incoming ic in
            let b = next_incoming ic in
            (a, b))
      with
      | Error _, Ok (Some (Serve.Proto.Session r)) ->
          Alcotest.(check string) "recovered frame sid" "s-2" r.Serve.Proto.sid
      | Error _, second ->
          Alcotest.failf "no resync after %S: %s" frame
            (match second with
            | Ok None -> "eof"
            | Ok (Some _) -> "wrong frame kind"
            | Error msg -> "error: " ^ msg)
      | Ok _, _ -> Alcotest.failf "malformed frame accepted: %S" frame)
    bad

(* --- Server ------------------------------------------------------------- *)

let mk_server () =
  Serve.Server.create
    { Serve.Server.default_config with cache_capacity = 8; jobs = 2 }

let test_server_cache_roundtrip () =
  let server = mk_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.shutdown server)
    (fun () ->
      let r = rng 13 in
      let inst = Workloads.Gen.uniform r ~n:9 ~m:3 ~k:3 () in
      let ask instance =
        Serve.Server.handle_request server
          { Serve.Proto.solver = Some "exact"; deadline_ms = None; instance; trace = None }
      in
      match ask inst with
      | Serve.Proto.Error msg -> Alcotest.fail msg
      | Serve.Proto.Stats_reply _ | Serve.Proto.Events_reply _
      | Serve.Proto.Health_reply _ | Serve.Proto.Session_reply _
      | Serve.Proto.Explain_reply _ | Serve.Proto.Profile_reply _ ->
          Alcotest.fail "unexpected admin reply"
      | Serve.Proto.Reply first -> (
          Alcotest.(check bool) "first is a miss" false
            first.Serve.Proto.cache_hit;
          (* the same instance relabeled must hit, with the same makespan,
             and the returned assignment must be valid for the relabeling *)
          let shuffled = Serve.Canon.shuffle r inst in
          match ask shuffled with
          | Serve.Proto.Error msg -> Alcotest.fail msg
          | Serve.Proto.Stats_reply _ | Serve.Proto.Events_reply _
          | Serve.Proto.Health_reply _ | Serve.Proto.Session_reply _
          | Serve.Proto.Explain_reply _ | Serve.Proto.Profile_reply _ ->
              Alcotest.fail "unexpected admin reply"
          | Serve.Proto.Reply second ->
              Alcotest.(check bool) "second is a hit" true
                second.Serve.Proto.cache_hit;
              Alcotest.(check (float 1e-9)) "same makespan"
                first.Serve.Proto.makespan second.Serve.Proto.makespan;
              let sched =
                Core.Schedule.make shuffled second.Serve.Proto.assignment
              in
              Alcotest.(check bool) "assignment valid" true
                (Core.Schedule.is_valid shuffled sched)))

let test_server_stats_frame () =
  (* one solve then a stats frame on the same session: the exposition
     must report that request in the labeled family and the latency
     histogram *)
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_stats_in" ".txt" in
  let outpath = Filename.temp_file "serve_stats_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      let inst = Workloads.Gen.identical (rng 15) ~n:5 ~m:2 ~k:2 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_stats_request oc Serve.Proto.Prometheus;
      Serve.Proto.write_stats_request oc Serve.Proto.Json;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Mux.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply _)) -> ()
          | _ -> Alcotest.fail "expected a solve reply first");
          let ok_count body =
            (* the "serve_requests{status="ok"} N" sample value *)
            let marker = "serve_requests{status=\"ok\"} " in
            match Astring.String.cut ~sep:marker body with
            | Some (_, rest) -> (
                match Astring.String.cut ~sep:"\n" rest with
                | Some (n, _) -> int_of_string n
                | None -> int_of_string rest)
            | None -> Alcotest.fail "no ok sample in exposition"
          in
          let first_ok =
            match Serve.Proto.read_response ic with
            | Ok (Some (Serve.Proto.Stats_reply { body; _ })) ->
                let has affix = Astring.String.is_infix ~affix body in
                Alcotest.(check bool) "latency histogram present" true
                  (has "# TYPE serve_request_latency_us histogram");
                Alcotest.(check bool) "latency histogram has buckets" true
                  (has "serve_request_latency_us_bucket{le=");
                let n = ok_count body in
                Alcotest.(check bool) "ok sample counts the request" true
                  (n >= 1);
                n
            | _ -> Alcotest.fail "expected a prometheus stats reply"
          in
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Stats_reply { format; body })) ->
              Alcotest.(check bool) "json format" true
                (format = Serve.Proto.Json);
              Alcotest.(check bool) "json body has histograms" true
                (Astring.String.is_infix ~affix:"\"histograms\"" body);
              (* the stats frame between the two scrapes did not count
                 as a request: admin traffic stays outside the metrics *)
              Alcotest.(check bool) "stats frames not counted" true
                (Astring.String.is_infix
                   ~affix:(Printf.sprintf "\"value\": %d" first_ok)
                   body)
          | _ -> Alcotest.fail "expected a json stats reply"))

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_server_events_frame () =
  (* a solve then an events frame on the same session: the reply body is
     the flight recorder's JSON lines and includes this request's
     lifecycle events *)
  Obs.Event.clear ();
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_events_in" ".txt" in
  let outpath = Filename.temp_file "serve_events_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Obs.Event.clear ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      let inst = Workloads.Gen.identical (rng 17) ~n:5 ~m:2 ~k:2 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_events_request oc;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Mux.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply _)) -> ()
          | _ -> Alcotest.fail "expected a solve reply first");
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Events_reply { body })) ->
              let lines =
                List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
              in
              Alcotest.(check bool) "body has events" true (lines <> []);
              List.iter
                (fun line ->
                  match Obs.Trace.check_json line with
                  | Ok () -> ()
                  | Error msg ->
                      Alcotest.failf "body line %S is not JSON: %s" line msg)
                lines;
              let has affix = Astring.String.is_infix ~affix body in
              Alcotest.(check bool) "request event present" true
                (has "\"name\":\"serve.request\"");
              Alcotest.(check bool) "done event present" true
                (has "\"name\":\"serve.request.done\"");
              Alcotest.(check bool) "dispatch decision present" true
                (has "\"name\":\"serve.dispatch.decision\"")
          | _ -> Alcotest.fail "expected an events reply"))

let test_server_health_frame () =
  (* a solve then a health frame on the same session: the reply payload
     carries composite status, the registered meters, SLO burn rates and
     per-domain heartbeats *)
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_health_in" ".txt" in
  let outpath = Filename.temp_file "serve_health_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      let inst = Workloads.Gen.identical (rng 23) ~n:5 ~m:2 ~k:2 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_health_request oc;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Mux.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply _)) -> ()
          | _ -> Alcotest.fail "expected a solve reply first");
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Health_reply { body })) ->
              let lines =
                List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
              in
              let starts prefix l = Astring.String.is_prefix ~affix:prefix l in
              let count prefix =
                List.length (List.filter (starts prefix) lines)
              in
              (* nothing is stuck and no meter is saturated in a test *)
              Alcotest.(check bool) "status ok" true
                (List.mem "status ok" lines);
              Alcotest.(check bool) "liveness ok" true
                (List.mem "liveness ok" lines);
              Alcotest.(check int) "uptime line" 1 (count "uptime_s ");
              (* pool.queue, cache and gc.heap meters from create *)
              Alcotest.(check bool) "cache meter" true
                (List.exists (starts "meter name=cache ") lines);
              Alcotest.(check bool) "pool meter" true
                (List.exists (starts "meter name=pool.queue ") lines);
              (* availability + latency objectives x 5m/1h windows *)
              Alcotest.(check int) "slo lines" 4 (count "slo name=");
              (* the session domain itself heartbeats, so >= 1 slot *)
              Alcotest.(check bool) "heartbeat lines" true
                (count "heartbeat domain=" >= 1)
          | _ -> Alcotest.fail "expected a health reply"))

let test_dispatch_pressure_sheds () =
  (* admission control: under pressure the heavy tier is shed before it
     runs, the answer comes degraded from the fast path, and the shed
     counter (not the deadline counter) takes the hit *)
  let inst = Workloads.Gen.uniform (rng 29) ~n:9 ~m:3 ~k:3 () in
  let shed_before = Obs.Counter.value (Obs.Counter.make "serve.dispatch.shed") in
  (match Serve.Dispatch.solve ~pressure:(fun () -> true) inst with
  | Ok o ->
      Alcotest.(check bool) "degraded" true o.Serve.Dispatch.degraded;
      Alcotest.(check bool) "fast-path solver" true
        (o.Serve.Dispatch.solver <> "exact"
        && o.Serve.Dispatch.solver <> "exact-budgeted")
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "shed counted" (shed_before + 1)
    (Obs.Counter.value (Obs.Counter.make "serve.dispatch.shed"));
  (* no pressure: the same instance runs the heavy tier undegraded *)
  match Serve.Dispatch.solve inst with
  | Ok o -> Alcotest.(check bool) "not degraded" false o.Serve.Dispatch.degraded
  | Error msg -> Alcotest.fail msg

let test_server_slow_dump () =
  (* acceptance criterion: a request over the slow threshold dumps a
     valid JSON-lines recorder slice carrying the request id on every
     event, including the dispatch decision and the exact solver's own
     events *)
  let dump = Filename.temp_file "serve_dump" ".jsonl" in
  let oc = open_out dump in
  let server =
    Serve.Server.create
      {
        Serve.Server.default_config with
        cache_capacity = 8;
        jobs = 2;
        slow_ms = Some 0.0;
        dump_channel = Some oc;
        dump_min_interval_s = 0.0;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      (try close_out oc with Sys_error _ -> ());
      try Sys.remove dump with Sys_error _ -> ())
    (fun () ->
      let inst = Workloads.Gen.uniform (rng 21) ~n:8 ~m:3 ~k:3 () in
      (match
         Serve.Server.handle_request server
           { Serve.Proto.solver = Some "exact"; deadline_ms = None; instance = inst; trace = None }
       with
      | Serve.Proto.Reply _ -> ()
      | _ -> Alcotest.fail "expected a solve reply");
      flush oc;
      match read_lines dump with
      | header :: events ->
          Alcotest.(check bool) "header names the trigger" true
            (Astring.String.is_infix ~affix:"\"dump\":\"slow-request\"" header);
          let req =
            match Astring.String.cut ~sep:"\"req\":\"" header with
            | Some (_, rest) -> (
                match Astring.String.cut ~sep:"\"" rest with
                | Some (id, _) -> id
                | None -> Alcotest.fail "unterminated req id in header")
            | None -> Alcotest.fail "no req id in the dump header"
          in
          Alcotest.(check bool) "dump has events" true (events <> []);
          List.iter
            (fun line ->
              (match Obs.Trace.check_json line with
              | Ok () -> ()
              | Error msg ->
                  Alcotest.failf "dump line %S is not JSON: %s" line msg);
              Alcotest.(check bool)
                (Printf.sprintf "line carries req id %s" req)
                true
                (Astring.String.is_infix
                   ~affix:(Printf.sprintf "\"req\":\"%s\"" req)
                   line))
            (header :: events);
          let all = String.concat "\n" events in
          let has affix = Astring.String.is_infix ~affix all in
          Alcotest.(check bool) "dispatch decision dumped" true
            (has "\"name\":\"serve.dispatch.decision\"");
          Alcotest.(check bool) "exact-node events dumped" true
            (has "\"name\":\"algos.exact.solve\"")
      | [] -> Alcotest.fail "slow request produced no dump")

let test_server_socket_session () =
  let server = mk_server () in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_test_%d.sock" (Unix.getpid ()))
  in
  let mux = Serve.Mux.create server in
  Serve.Mux.add_unix mux ~path;
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Mux.stop mux;
      Domain.join runner;
      Serve.Server.shutdown server;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let inst = Workloads.Gen.identical (rng 14) ~n:6 ~m:2 ~k:2 () in
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      Serve.Proto.write_request oc
        { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace = None };
      output_string oc "request v1\nsolver greedy\nend\n";
      flush oc;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      (match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply r)) ->
          Alcotest.(check bool) "miss" false r.Serve.Proto.cache_hit
      | _ -> Alcotest.fail "expected first reply");
      (match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply r)) ->
          Alcotest.(check bool) "hit" true r.Serve.Proto.cache_hit
      | _ -> Alcotest.fail "expected second reply");
      (match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Error _)) -> ()
      | _ -> Alcotest.fail "expected an error response");
      (match Serve.Proto.read_response ic with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected end of stream");
      Unix.close fd)

(* --- Tracing ------------------------------------------------------------- *)

let test_server_trace_adoption () =
  Obs.Phase.clear ();
  let server = mk_server () in
  Fun.protect
    ~finally:(fun () -> Serve.Server.shutdown server)
    (fun () ->
      let inst = Workloads.Gen.uniform (rng 41) ~n:9 ~m:3 ~k:3 () in
      let ask trace =
        Serve.Server.handle_request server
          { Serve.Proto.solver = Some "greedy"; deadline_ms = None; instance = inst; trace }
      in
      (match ask (Some { Serve.Proto.tid = "cli.9"; parent = Some 77 }) with
      | Serve.Proto.Reply r ->
          Alcotest.(check (option string)) "client id echoed" (Some "cli.9")
            r.Serve.Proto.trace
      | _ -> Alcotest.fail "expected a reply");
      (* the request's phases carry the adopted id, and the root phase
         links under the client's open span *)
      (match Obs.Phase.recent ~ctx:"cli.9" () with
      | [] -> Alcotest.fail "no phases recorded for the adopted id"
      | root :: _ ->
          Alcotest.(check string) "root phase" "serve.request"
            root.Obs.Phase.name;
          Alcotest.(check (option int))
            "root links to the client's span" (Some 77) root.Obs.Phase.parent);
      match ask None with
      | Serve.Proto.Reply r -> (
          match r.Serve.Proto.trace with
          | Some id ->
              Alcotest.(check bool)
                (Printf.sprintf "minted id %S still echoed" id)
                true
                (String.length id > 1 && id.[0] = 'r')
          | None -> Alcotest.fail "minted id not echoed")
      | _ -> Alcotest.fail "expected a reply")

(* One [phase] line of an explain payload -> (depth, name, dur_us). *)
let parse_phase_line line =
  let tok key =
    let prefix = key ^ "=" in
    match
      List.find_map
        (fun t ->
          if Astring.String.is_prefix ~affix:prefix t then
            Some
              (String.sub t (String.length prefix)
                 (String.length t - String.length prefix))
          else None)
        (String.split_on_char ' ' line)
    with
    | Some v -> v
    | None -> Alcotest.failf "phase line %S lacks %s=" line key
  in
  ( int_of_string (tok "depth"),
    tok "name",
    float_of_string (tok "dur_us") )

let test_server_explain_acceptance () =
  (* end-to-end acceptance: a client-minted trace id yields the echoed
     id on the reply, an explain tree whose solver phases are visible
     and account for the request's wall time, an exemplar in the
     exposition, and session ops tagged with their trace *)
  Obs.Phase.clear ();
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_explain_in" ".txt" in
  let outpath = Filename.temp_file "serve_explain_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Obs.Phase.clear ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      (* n in the portfolio band so binary-search probes and LP phases
         show up in the tree *)
      let inst = Workloads.Gen.uniform (rng 42) ~n:24 ~m:3 ~k:3 () in
      let oc = open_out inpath in
      Serve.Proto.write_request oc
        {
          Serve.Proto.solver = Some "auto";
          deadline_ms = None;
          instance = inst;
          trace = Some { Serve.Proto.tid = "acc.1"; parent = None };
        };
      Serve.Proto.write_explain_request oc "acc.1";
      Serve.Proto.write_explain_request oc "no-such-id";
      Serve.Proto.write_session_request oc
        {
          Serve.Proto.sid = "sess-t";
          op = Serve.Proto.S_create inst;
          trace = Some { Serve.Proto.tid = "acc.s"; parent = None };
        };
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Mux.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Reply r)) ->
              Alcotest.(check (option string)) "trace echoed" (Some "acc.1")
                r.Serve.Proto.trace
          | _ -> Alcotest.fail "expected a solve reply first");
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Explain_reply { body })) -> (
              let lines =
                List.filter (fun l -> l <> "") (String.split_on_char '\n' body)
              in
              match lines with
              | header :: phases ->
                  Alcotest.(check bool) "header names the trace" true
                    (Astring.String.is_prefix ~affix:"trace id=acc.1 spans="
                       header);
                  let parsed = List.map parse_phase_line phases in
                  let has name =
                    Alcotest.(check bool) (name ^ " phase visible") true
                      (List.exists (fun (_, n, _) -> n = name) parsed)
                  in
                  has "serve.request";
                  has "serve.dispatch";
                  has "core.binary_search";
                  has "core.binary_search.probe";
                  has "lp.simplex.solve";
                  (* probes carry their guess and verdict *)
                  Alcotest.(check bool) "probe verdict visible" true
                    (List.exists
                       (fun l ->
                         Astring.String.is_infix
                           ~affix:"name=core.binary_search.probe" l
                         && Astring.String.is_infix ~affix:"guess=" l
                         && (Astring.String.is_infix ~affix:" feasible" l
                            || Astring.String.is_infix ~affix:" infeasible" l))
                       phases);
                  (* the tree accounts for the request's wall time: the
                     root's direct children sum to its duration within
                     20% (the cache probe and framing outside them are
                     cheap next to the solve) *)
                  (match parsed with
                  | (0, "serve.request", root_dur) :: rest ->
                      let child_sum =
                        List.fold_left
                          (fun acc (d, _, dur) ->
                            if d = 1 then acc +. dur else acc)
                          0.0 rest
                      in
                      Alcotest.(check bool)
                        (Printf.sprintf
                           "children (%.0f us) within 20%% of root (%.0f us)"
                           child_sum root_dur)
                        true
                        (child_sum >= 0.8 *. root_dur
                        && child_sum <= 1.02 *. root_dur)
                  | _ -> Alcotest.fail "first phase is not the root");
                  (* at least one histogram exemplar references the id *)
                  Alcotest.(check bool) "exemplar in exposition" true
                    (Astring.String.is_infix ~affix:"trace_id=\"acc.1\""
                       (Obs.Expo.prometheus ()))
              | [] -> Alcotest.fail "empty explain payload")
          | _ -> Alcotest.fail "expected an explain reply");
          (match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Error msg)) ->
              Alcotest.(check bool) "unknown id names itself" true
                (Astring.String.is_infix ~affix:"no-such-id" msg)
          | _ -> Alcotest.fail "expected an error for the unknown id");
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Session_reply sr)) ->
              Alcotest.(check (option string)) "session op tagged"
                (Some "acc.s") sr.Serve.Proto.trace
          | _ -> Alcotest.fail "expected a session reply"))

let test_server_events_filter () =
  (* the events frame's count/level fields filter server-side — what
     `schedtool events --level/--count` rides on *)
  Obs.Event.clear ();
  let server = mk_server () in
  let inpath = Filename.temp_file "serve_evfilter_in" ".txt" in
  let outpath = Filename.temp_file "serve_evfilter_out" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.shutdown server;
      Obs.Event.clear ();
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ inpath; outpath ])
    (fun () ->
      Obs.Event.emit "test.filter.noise" [];
      Obs.Event.emit ~level:Obs.Event.Warn "test.filter.warn1" [];
      Obs.Event.emit "test.filter.noise" [];
      Obs.Event.emit ~level:Obs.Event.Error "test.filter.err1" [];
      let oc = open_out inpath in
      Serve.Proto.write_events_request ~level:Obs.Event.Warn oc;
      Serve.Proto.write_events_request ~count:1 oc;
      close_out oc;
      let ic = open_in inpath in
      let oc = open_out outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Serve.Mux.serve_channels server ic oc);
      close_out oc;
      let ic = open_in outpath in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let body () =
            match Serve.Proto.read_response ic with
            | Ok (Some (Serve.Proto.Events_reply { body })) ->
                List.filter (fun l -> l <> "")
                  (String.split_on_char '\n' body)
            | _ -> Alcotest.fail "expected an events reply"
          in
          let by_level = body () in
          Alcotest.(check bool) "warn retained" true
            (List.exists
               (Astring.String.is_infix ~affix:"test.filter.warn1")
               by_level);
          Alcotest.(check bool) "error retained" true
            (List.exists
               (Astring.String.is_infix ~affix:"test.filter.err1")
               by_level);
          Alcotest.(check bool) "info filtered out" false
            (List.exists
               (Astring.String.is_infix ~affix:"test.filter.noise")
               by_level);
          let newest = body () in
          Alcotest.(check int) "count keeps exactly one line" 1
            (List.length newest)))

(* --- Session registry ---------------------------------------------------- *)

let session_env ?(config = Serve.Session.default_config) () =
  let sessions = Serve.Session.create config in
  let cache = Serve.Cache.create ~capacity:8 in
  let handle req =
    Serve.Session.handle sessions ~cache ~default_deadline_ms:None
      ~pressure:(fun () -> false)
      req
  in
  (sessions, handle)

let expect_session name response =
  match (response : Serve.Proto.response) with
  | Serve.Proto.Session_reply r -> r
  | Serve.Proto.Error msg -> Alcotest.fail (name ^ ": " ^ msg)
  | _ -> Alcotest.fail (name ^ ": expected a session reply")

let expect_session_error name response =
  match (response : Serve.Proto.response) with
  | Serve.Proto.Error msg -> msg
  | _ -> Alcotest.fail (name ^ ": expected an error")

let test_session_lifecycle () =
  let _, handle = session_env () in
  let inst = Workloads.Gen.uniform (rng 21) ~n:9 ~m:3 ~k:3 () in
  let created =
    expect_session "create"
      (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None })
  in
  Alcotest.(check int) "fresh generation" 0 created.Serve.Proto.generation;
  Alcotest.(check int) "fresh jobs" 9 created.Serve.Proto.jobs;
  let resolve () =
    expect_session "resolve"
      (handle
         {
           Serve.Proto.sid = "a";
           op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
         })
  in
  let first = resolve () in
  Alcotest.(check (option string)) "first is full" (Some "full")
    first.Serve.Proto.mode;
  let first_solve = Option.get first.Serve.Proto.solve in
  let added =
    expect_session "add"
      (handle
         {
           Serve.Proto.sid = "a";
           op =
             Serve.Proto.S_add_jobs
               [
                 {
                   Core.Instance.nsize = 4.0;
                   nclass = 0;
                   nptimes = None;
                   neligible = None;
                 };
               ]; trace = None
         })
  in
  Alcotest.(check int) "generation bumped" 1 added.Serve.Proto.generation;
  Alcotest.(check int) "job appended" 10 added.Serve.Proto.jobs;
  let repaired = resolve () in
  Alcotest.(check (option string)) "mutated resolve repairs" (Some "repair")
    repaired.Serve.Proto.mode;
  let repaired_solve = Option.get repaired.Serve.Proto.solve in
  (* adding work can only push the makespan up *)
  Alcotest.(check bool) "monotone makespan" true
    (repaired_solve.Serve.Proto.makespan
     >= first_solve.Serve.Proto.makespan -. 1e-9);
  let again = resolve () in
  Alcotest.(check (option string)) "unchanged resolve hits the cache"
    (Some "cache") again.Serve.Proto.mode;
  let dropped =
    expect_session "drop"
      (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_drop_jobs [ 9 ]; trace = None })
  in
  Alcotest.(check int) "drop bumps generation" 2
    dropped.Serve.Proto.generation;
  Alcotest.(check int) "job removed" 9 dropped.Serve.Proto.jobs;
  let back = resolve () in
  Alcotest.(check (option string)) "post-drop resolve repairs" (Some "repair")
    back.Serve.Proto.mode;
  ignore
    (expect_session "close"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_close; trace = None }))

let test_session_errors () =
  let _, handle =
    session_env
      ~config:{ Serve.Session.default_config with max_sessions = 2 }
      ()
  in
  let inst = Workloads.Gen.identical (rng 22) ~n:5 ~m:2 ~k:2 () in
  let contains msg affix =
    Alcotest.(check bool)
      (Printf.sprintf "%S mentions %S" msg affix)
      true
      (Astring.String.is_infix ~affix msg)
  in
  (* unknown id *)
  contains
    (expect_session_error "unknown"
       (handle
          {
            Serve.Proto.sid = "ghost";
            op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
          }))
    "unknown session id";
  ignore
    (expect_session "create"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None }));
  (* duplicate create *)
  contains
    (expect_session_error "duplicate"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None }))
    "already exists";
  (* malformed mutations *)
  contains
    (expect_session_error "out of range"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_drop_jobs [ 7 ]; trace = None }))
    "out of range";
  contains
    (expect_session_error "emptying"
       (handle
          {
            Serve.Proto.sid = "a";
            op = Serve.Proto.S_drop_jobs [ 0; 1; 2; 3; 4 ]; trace = None
          }))
    "empty";
  contains
    (expect_session_error "unknown class"
       (handle
          {
            Serve.Proto.sid = "a";
            op =
              Serve.Proto.S_add_jobs
                [
                  {
                    Core.Instance.nsize = 1.0;
                    nclass = 9;
                    nptimes = None;
                    neligible = None;
                  };
                ]; trace = None
          }))
    "class";
  (* table full *)
  ignore
    (expect_session "second create"
       (handle { Serve.Proto.sid = "b"; op = Serve.Proto.S_create inst; trace = None }));
  contains
    (expect_session_error "table full"
       (handle { Serve.Proto.sid = "c"; op = Serve.Proto.S_create inst; trace = None }))
    "session table full";
  (* double close *)
  ignore
    (expect_session "close"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_close; trace = None }));
  contains
    (expect_session_error "double close"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_close; trace = None }))
    "unknown session id";
  (* the freed slot is usable again *)
  ignore
    (expect_session "create after close"
       (handle { Serve.Proto.sid = "c"; op = Serve.Proto.S_create inst; trace = None }))

let test_session_idle_eviction () =
  let sessions, handle =
    session_env
      ~config:
        { Serve.Session.default_config with idle_timeout_s = Some 0.0 }
      ()
  in
  let inst = Workloads.Gen.identical (rng 23) ~n:5 ~m:2 ~k:2 () in
  ignore
    (expect_session "create"
       (handle { Serve.Proto.sid = "a"; op = Serve.Proto.S_create inst; trace = None }));
  Alcotest.(check int) "one live session" 1 (Serve.Session.count sessions);
  Unix.sleepf 0.01;
  (* lazy expiry on access: the error names the configured timeout *)
  let msg =
    expect_session_error "expired"
      (handle
         {
           Serve.Proto.sid = "a";
           op = Serve.Proto.S_resolve { deadline_ms = None }; trace = None
         })
  in
  Alcotest.(check bool) "names idle timeout" true
    (Astring.String.is_infix ~affix:"idle timeout" msg);
  Alcotest.(check int) "slot reclaimed" 0 (Serve.Session.count sessions);
  (* bulk sweep: the watchdog-tick path *)
  ignore
    (expect_session "recreate"
       (handle { Serve.Proto.sid = "b"; op = Serve.Proto.S_create inst; trace = None }));
  Unix.sleepf 0.01;
  Alcotest.(check int) "sweep evicts" 1 (Serve.Session.evict_idle sessions);
  Alcotest.(check int) "registry empty" 0 (Serve.Session.count sessions)

(* --- incremental frame parser -------------------------------------------- *)

(* oracle: the stream read line by line with [input_line], which every
   byte-chunked feed of it must reproduce *)
let channel_incomings text =
  roundtrip_via_file
    (fun oc -> output_string oc text)
    (fun ic ->
      let rec go acc =
        match next_incoming ic with
        | Ok None -> List.rev acc
        | Ok (Some x) -> go (Ok x :: acc)
        | Error msg -> go (Error msg :: acc)
      in
      go [])

let channel_responses text =
  roundtrip_via_file
    (fun oc -> output_string oc text)
    (fun ic ->
      let rec go acc =
        match Serve.Proto.read_response ic with
        | Ok None -> List.rev acc
        | Ok (Some x) -> go (Ok x :: acc)
        | Error msg -> go (Error msg :: acc)
      in
      go [])

(* feed [text] to the incremental parser in the given chunks and decode
   every completed frame with [of_frame] *)
let incremental_decode of_frame chunks =
  let p = Serve.Proto.Incremental.create () in
  let out = ref [] in
  let drain () =
    let rec go () =
      match Serve.Proto.Incremental.next_frame p with
      | None -> ()
      | Some frame ->
          out := of_frame frame :: !out;
          go ()
    in
    go ()
  in
  List.iter
    (fun chunk ->
      Serve.Proto.Incremental.feed p chunk;
      drain ())
    chunks;
  Serve.Proto.Incremental.finish p;
  drain ();
  List.rev !out

let show_incoming = function
  | Error msg -> "error: " ^ msg
  | Ok (Serve.Proto.Solve req) ->
      Printf.sprintf "solve %s %s\n%s"
        (Option.value ~default:"-" req.Serve.Proto.solver)
        (match req.Serve.Proto.deadline_ms with
        | Some d -> string_of_float d
        | None -> "-")
        (Core.Instance_io.to_string req.Serve.Proto.instance)
  | Ok (Serve.Proto.Stats Serve.Proto.Prometheus) -> "stats prometheus"
  | Ok (Serve.Proto.Stats Serve.Proto.Json) -> "stats json"
  | Ok (Serve.Proto.Events { count; min_level }) ->
      Printf.sprintf "events %s %s"
        (match count with Some n -> string_of_int n | None -> "-")
        (Obs.Event.level_to_string min_level)
  | Ok Serve.Proto.Health -> "health"
  | Ok (Serve.Proto.Explain id) -> "explain " ^ id
  | Ok (Serve.Proto.Session { sid; _ }) -> "session " ^ sid
  | Ok (Serve.Proto.Profile _) -> "profile"

let show_response = function
  | Error msg -> "error: " ^ msg
  | Ok r -> Serve.Proto.response_to_string r

(* a stream that exercises every resync path: good frames, an unknown
   header, a bad body, admin frames *)
let incoming_stream () =
  let inst = Workloads.Gen.identical (rng 41) ~n:5 ~m:2 ~k:2 () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "request v1\ndeadline_ms 12.5\ninstance\n";
  Buffer.add_string buf (Core.Instance_io.to_string inst);
  Buffer.add_string buf "end\n";
  Buffer.add_string buf "banana v9\nsolver exact\nend\n";
  Buffer.add_string buf "request v1\ninstance\nnot a keyword\nend\n";
  Buffer.add_string buf "stats v1\nformat json\nend\n";
  Buffer.add_string buf "\n\nevents v1\ncount 7\nend\n";
  Buffer.add_string buf "health v1\nend\n";
  Buffer.add_string buf "explain v1\nid lg1.2\nend\n";
  Buffer.contents buf

(* payload-bearing responses, so chunk splits land inside the [payload]
   marker and inside payload bodies *)
let response_stream () =
  let buf = Buffer.create 512 in
  List.iter
    (fun r -> Buffer.add_string buf (Serve.Proto.response_to_string r))
    [
      Serve.Proto.Reply
        {
          solver = "exact";
          cache_hit = false;
          degraded = false;
          makespan = 17.5;
          elapsed_us = 42;
          assignment = [| 0; 1; 1 |];
          trace = Some "lg1.1";
        };
      Serve.Proto.Stats_reply
        {
          format = Serve.Proto.Prometheus;
          body = "# TYPE serve_requests counter\nserve_requests 3\n";
        };
      Serve.Proto.Error "boom";
      Serve.Proto.Health_reply { body = "status ok\nliveness ok\n" };
    ]
  |> ignore;
  Buffer.add_string buf "response v9\nstatus ok\nend\n";
  Buffer.contents buf

let chop_bytes s = List.init (String.length s) (fun i -> String.sub s i 1)

let test_incremental_byte_at_a_time () =
  let text = incoming_stream () in
  let oracle = List.map show_incoming (channel_incomings text) in
  let whole =
    List.map show_incoming
      (incremental_decode
         (fun f -> Serve.Proto.incoming_of_frame f)
         [ text ])
  in
  Alcotest.(check (list string)) "whole feed matches channel" oracle whole;
  let bytewise =
    List.map show_incoming
      (incremental_decode
         (fun f -> Serve.Proto.incoming_of_frame f)
         (chop_bytes text))
  in
  Alcotest.(check (list string)) "byte-at-a-time matches channel" oracle
    bytewise

let test_incremental_every_split () =
  (* every two-chunk split of a payload-bearing response stream decodes
     identically — including splits inside the [payload] marker *)
  let text = response_stream () in
  let oracle = List.map show_response (channel_responses text) in
  Alcotest.(check (list string))
    "whole feed matches channel" oracle
    (List.map show_response
       (incremental_decode
          (fun f -> Serve.Proto.response_of_frame f)
          [ text ]));
  for k = 0 to String.length text do
    let chunks =
      [ String.sub text 0 k; String.sub text k (String.length text - k) ]
    in
    let got =
      List.map show_response
        (incremental_decode
           (fun f -> Serve.Proto.response_of_frame f)
           chunks)
    in
    if got <> oracle then
      Alcotest.failf "split at byte %d diverges from the line-by-line read" k
  done

let test_incremental_truncation () =
  let p = Serve.Proto.Incremental.create () in
  Serve.Proto.Incremental.feed p "request v1\nsolver exact";
  Alcotest.(check bool) "nothing complete yet" true
    (Serve.Proto.Incremental.next_frame p = None);
  (* stream ends mid-frame: finish delivers the dangling line, and the
     open frame is detectable for a truncated-frame error reply *)
  Serve.Proto.Incremental.finish p;
  Alcotest.(check bool) "still no frame" true
    (Serve.Proto.Incremental.next_frame p = None);
  Alcotest.(check bool) "open frame detected" true
    (Serve.Proto.Incremental.in_frame p);
  Alcotest.(check int) "all bytes consumed" 0
    (Serve.Proto.Incremental.buffered p);
  Alcotest.(check bool) "error names the terminator" true
    (Astring.String.is_infix ~affix:"end"
       Serve.Proto.Incremental.truncated_error)

(* --- generational prehash ------------------------------------------------- *)

let test_server_prehash_rotation () =
  (* prehash_cap 4 → generations of 2: the filter must retain the most
     recent half across a rotation instead of forgetting everything *)
  let server =
    Serve.Server.create
      {
        Serve.Server.default_config with
        cache_capacity = 64;
        jobs = 2;
        prehash_cap = 4;
      }
  in
  Fun.protect ~finally:(fun () -> Serve.Server.shutdown server) @@ fun () ->
  let r = rng 43 in
  let mk n = Workloads.Gen.identical (rng (100 + n)) ~n:(4 + n) ~m:2 ~k:2 () in
  let ask inst =
    match
      Serve.Server.handle_request server
        {
          Serve.Proto.solver = Some "exact";
          deadline_ms = None;
          instance = inst;
          trace = None;
        }
    with
    | Serve.Proto.Reply rep -> rep
    | Serve.Proto.Error msg -> Alcotest.fail msg
    | _ -> Alcotest.fail "unexpected admin reply"
  in
  let rot0 = counter "serve.canon.prehash_rotations" in
  let i1 = mk 1 and i2 = mk 2 and i3 = mk 3 in
  let i4 = mk 4 and i5 = mk 5 in
  ignore (ask i1);
  ignore (ask i2);
  (* current generation full: the next distinct fingerprint rotates *)
  ignore (ask i3);
  Alcotest.(check int) "one rotation" (rot0 + 1)
    (counter "serve.canon.prehash_rotations");
  (* i2 now lives in the previous generation — a relabeling still hits *)
  Alcotest.(check bool) "previous generation hits" true
    (ask (Serve.Canon.shuffle r i2)).Serve.Proto.cache_hit;
  ignore (ask i4);
  ignore (ask i5);
  Alcotest.(check int) "two rotations" (rot0 + 2)
    (counter "serve.canon.prehash_rotations");
  (* after two rotations the recent half survives, the oldest does not *)
  Alcotest.(check bool) "recent half survives" true
    (ask (Serve.Canon.shuffle r i3)).Serve.Proto.cache_hit;
  Alcotest.(check bool) "evicted fingerprint re-solves" false
    (ask (Serve.Canon.shuffle r i1)).Serve.Proto.cache_hit

(* --- shard router --------------------------------------------------------- *)

let test_router_ring () =
  let keys = List.init 2048 (fun i -> Printf.sprintf "key-%d" i) in
  let ring = Serve.Router.Ring.make 4 in
  let again = Serve.Router.Ring.make 4 in
  let counts = Array.make 4 0 in
  List.iter
    (fun k ->
      let s = Serve.Router.Ring.shard ring k in
      Alcotest.(check int) "deterministic" s (Serve.Router.Ring.shard again k);
      Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
      counts.(s) <- counts.(s) + 1)
    keys;
  Array.iteri
    (fun i c ->
      if c * 16 < List.length keys then
        Alcotest.failf "backend %d owns only %d of %d keys" i c
          (List.length keys))
    counts;
  (* removing the last backend must not remap keys the others own: the
     surviving backends' ring points are identical in both rings *)
  let smaller = Serve.Router.Ring.make 3 in
  List.iter
    (fun k ->
      let s = Serve.Router.Ring.shard ring k in
      if s < 3 then
        Alcotest.(check int) "surviving arcs stable" s
          (Serve.Router.Ring.shard smaller k))
    keys;
  (* and the lost backend's share is roughly a quarter, not the world *)
  Alcotest.(check bool) "lost share is bounded" true
    (counts.(3) * 2 < List.length keys)

let test_router_affinity () =
  let router = Serve.Router.create [ "a"; "b"; "c"; "d" ] in
  let r = rng 17 in
  let inst = Workloads.Gen.uniform r ~n:8 ~m:3 ~k:2 () in
  let solve inst =
    Serve.Proto.Solve
      { Serve.Proto.solver = None; deadline_ms = None; instance = inst; trace = None }
  in
  let s0 = Serve.Router.shard_of_incoming router (solve inst) in
  (* relabelings share Canon.prehash, so they keep their shard (and its
     warm canonical cache) *)
  for _ = 1 to 8 do
    Alcotest.(check int) "relabeling keeps its shard" s0
      (Serve.Router.shard_of_incoming router
         (solve (Serve.Canon.shuffle r inst)))
  done;
  let sess sid =
    Serve.Proto.Session { Serve.Proto.sid; op = Serve.Proto.S_close; trace = None }
  in
  Alcotest.(check int) "session id pins its shard"
    (Serve.Router.shard_of_incoming router (sess "s-1"))
    (Serve.Router.shard_of_incoming router (sess "s-1"));
  Alcotest.(check int) "admin frames go to shard 0" 0
    (Serve.Router.shard_of_incoming router
       (Serve.Proto.Stats Serve.Proto.Prometheus))

(* --- mux event loop ------------------------------------------------------- *)

let mux_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let test_mux_tcp_pipeline () =
  (* pipelined frames on one TCP connection answer in order, through the
     same cache as stdio; a malformed frame gets an
     error reply and the connection survives *)
  let server =
    Serve.Server.create
      { Serve.Server.default_config with cache_capacity = 8; jobs = 1 }
  in
  let mux = Serve.Mux.create server in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "expected a TCP address"
  in
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Mux.stop mux;
      Domain.join runner;
      Serve.Server.shutdown server)
  @@ fun () ->
  let inst = Workloads.Gen.identical (rng 47) ~n:6 ~m:2 ~k:2 () in
  let fd, ic, oc = mux_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* write the whole burst before reading anything *)
  for i = 1 to 3 do
    Serve.Proto.write_request oc
      {
        Serve.Proto.solver = Some "exact";
        deadline_ms = None;
        instance = inst;
        trace = Some { Serve.Proto.tid = Printf.sprintf "mx.%d" i; parent = None };
      }
  done;
  output_string oc "banana v9\nend\n";
  Serve.Proto.write_stats_request oc Serve.Proto.Prometheus;
  let replies =
    List.init 3 (fun _ ->
        match Serve.Proto.read_response ic with
        | Ok (Some (Serve.Proto.Reply r)) -> r
        | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.fail msg
        | _ -> Alcotest.fail "expected a solve reply")
  in
  List.iteri
    (fun i (r : Serve.Proto.reply) ->
      Alcotest.(check (option string)) "replies arrive in request order"
        (Some (Printf.sprintf "mx.%d" (i + 1)))
        r.Serve.Proto.trace;
      Alcotest.(check bool) "cache behaves like stdio" (i > 0)
        r.Serve.Proto.cache_hit)
    replies;
  (match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Error msg)) ->
      Alcotest.(check bool) "bad header is answered in sequence" true
        (Astring.String.is_infix ~affix:"banana" msg)
  | _ -> Alcotest.fail "expected an error reply for the bad frame");
  match Serve.Proto.read_response ic with
  | Ok (Some (Serve.Proto.Stats_reply { body; _ })) ->
      Alcotest.(check bool) "admin frame still answered inline" true
        (Astring.String.is_infix ~affix:"serve_requests" body)
  | _ -> Alcotest.fail "expected a stats reply after the error"

(* The wire bytes [write] emits, for a burst sent with one [write]. *)
let frames_text write = roundtrip_via_file write In_channel.input_all

let write_all fd text =
  let rec go off =
    if off < String.length text then
      go (off + Unix.write_substring fd text off (String.length text - off))
  in
  go 0

(* A serving loop on an ephemeral TCP port, stopped and drained after
   [f port]. *)
let with_mux ~jobs ~max_pending f =
  let server =
    Serve.Server.create
      { Serve.Server.default_config with cache_capacity = 8; jobs }
  in
  let mux =
    Serve.Mux.create
      ~config:{ Serve.Mux.default_config with max_pending }
      server
  in
  let port =
    match Serve.Mux.add_tcp mux ~host:"127.0.0.1" ~port:0 with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "expected a TCP address"
  in
  let runner = Domain.spawn (fun () -> Serve.Mux.run mux) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Mux.stop mux;
      Domain.join runner;
      Serve.Server.shutdown server)
    (fun () -> f port)

(* Send [n] exact solves of distinct instances in one write and return
   the replies' degraded flags, checking they arrive in request order. *)
let exact_burst port ~tag n =
  let fd, ic, _ = mux_connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  write_all fd
    (frames_text (fun oc ->
         for i = 1 to n do
           Serve.Proto.write_request oc
             {
               Serve.Proto.solver = Some "exact";
               deadline_ms = None;
               instance = Workloads.Gen.uniform (rng (53 + i)) ~n:12 ~m:4 ~k:3 ();
               trace =
                 Some
                   { Serve.Proto.tid = Printf.sprintf "%s.%d" tag i; parent = None };
             }
         done));
  List.init n (fun i ->
      match Serve.Proto.read_response ic with
      | Ok (Some (Serve.Proto.Reply r)) ->
          Alcotest.(check (option string)) "in order"
            (Some (Printf.sprintf "%s.%d" tag (i + 1)))
            r.Serve.Proto.trace;
          r.Serve.Proto.degraded
      | Ok (Some (Serve.Proto.Error msg)) -> Alcotest.fail msg
      | _ -> Alcotest.fail "expected a solve reply")

let test_mux_sheds_under_overload () =
  (* one pool worker, a queue of 2: a burst of 7 requests in one write —
     so every admission is decided in one pass of the loop — admits 1
     (dispatched) + 2 (queued) and sheds 4 with degraded replies, and
     every frame still gets exactly one in-order answer. Each frame has
     its own instance, so no shed frame is answered from a cache the
     admitted ones filled. *)
  with_mux ~jobs:2 ~max_pending:2 @@ fun port ->
  let n = 7 in
  let flags = exact_burst port ~tag:"ov" n in
  let degraded = List.length (List.filter Fun.id flags) in
  let served = n - degraded in
  Alcotest.(check int) "every frame answered" n (List.length flags);
  (* the queue meter feeds the health lattice, which halves capacity as
     the queue fills — so 2 or 3 frames are admitted (head-of-line plus
     one or two queued), and at least 4 of the 7 are shed degraded *)
  Alcotest.(check bool) "overload sheds degraded replies" true (degraded >= 4);
  Alcotest.(check bool) "admitted frames get full answers" true (served >= 2)

let show_admission = function
  | Serve.Mux.Admitted -> "admitted"
  | Serve.Mux.Shed_queue_full -> "shed_queue_full"
  | Serve.Mux.Shed_pressure -> "shed_pressure"
  | Serve.Mux.Shed_deadline -> "shed_deadline"

let test_mux_shed_pressure () =
  (* admission is the one reader of the health lattice for shedding: a
     saturated meter halves a queue of 4 (Degraded) or closes it
     (Unhealthy), and what it turns away below the configured bound is
     labeled shed_pressure — in the decision itself and on a live loop *)
  let fill = ref 1.0 in
  Obs.Health.register_meter "test.mux.saturated" (fun () -> !fill);
  Fun.protect ~finally:(fun () -> fill := 0.0) @@ fun () ->
  let decisions () =
    List.map
      (fun depth -> show_admission (Serve.Mux.admission ~max_pending:4 ~depth))
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check (list string)) "degraded: queue of 2"
    [ "admitted"; "admitted"; "shed_pressure"; "shed_pressure"; "shed_queue_full" ]
    (decisions ());
  let adm = Obs.Labeled.family "serve.mux.admission" ~label:"outcome" in
  let ledger () =
    List.map
      (fun o -> Obs.Labeled.value (Obs.Labeled.cell adm o))
      [ "admitted"; "shed_pressure"; "shed_queue_full" ]
  in
  let burst () =
    with_mux ~jobs:2 ~max_pending:4 @@ fun port ->
    let before = ledger () in
    let flags = exact_burst port ~tag:"sp" 6 in
    (List.length (List.filter Fun.id flags), List.map2 ( - ) (ledger ()) before)
  in
  (* one frame runs, two queue, the rest are shed: the pool's worker
     is not part of the queue *)
  let degraded, delta = burst () in
  Alcotest.(check (list int)) "degraded ledger" [ 3; 3; 0 ] delta;
  Alcotest.(check int) "degraded: shed replies" 3 degraded;
  fill := 2.0;
  Alcotest.(check (list string)) "unhealthy: nothing admitted"
    [ "shed_pressure"; "shed_pressure"; "shed_pressure"; "shed_pressure";
      "shed_queue_full" ]
    (decisions ());
  let degraded, delta = burst () in
  Alcotest.(check (list int)) "unhealthy ledger" [ 0; 6; 0 ] delta;
  Alcotest.(check int) "unhealthy: every reply shed" 6 degraded

let test_mux_session_order () =
  (* 40 session lifecycles pipelined down one connection: every sid's
     ops apply in the order sent, both when the queue overflows (sheds
     run at once) and when the pool runs frames concurrently *)
  let inst = Workloads.Gen.uniform (rng 71) ~n:8 ~m:3 ~k:2 () in
  let ops =
    [
      Serve.Proto.S_create inst;
      Serve.Proto.S_resolve { deadline_ms = None };
      Serve.Proto.S_add_jobs
        [ { Core.Instance.nsize = 25.0; nclass = 1; nptimes = None; neligible = None } ];
      Serve.Proto.S_resolve { deadline_ms = None };
      Serve.Proto.S_drop_jobs [ 2 ];
      Serve.Proto.S_resolve { deadline_ms = None };
      Serve.Proto.S_close;
    ]
  in
  let frames =
    List.concat_map
      (fun i ->
        List.map
          (fun op ->
            { Serve.Proto.sid = Printf.sprintf "s%d" i; op; trace = None })
          ops)
      (List.init 40 Fun.id)
  in
  let text =
    frames_text (fun oc -> List.iter (Serve.Proto.write_session_request oc) frames)
  in
  List.iter
    (fun (jobs, max_pending) ->
      with_mux ~jobs ~max_pending @@ fun port ->
      let fd, ic, _ = mux_connect port in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      @@ fun () ->
      write_all fd text;
      List.iter
        (fun (sent : Serve.Proto.session_request) ->
          match Serve.Proto.read_response ic with
          | Ok (Some (Serve.Proto.Session_reply r)) ->
              Alcotest.(check string) "reply order" sent.Serve.Proto.sid
                r.Serve.Proto.sid;
              Alcotest.(check string) "op order"
                (Serve.Proto.session_op_name sent.Serve.Proto.op)
                r.Serve.Proto.op
          | Ok (Some (Serve.Proto.Error msg)) ->
              Alcotest.failf "-j %d, max_pending %d: %s on %s" jobs max_pending
                msg sent.Serve.Proto.sid
          | _ -> Alcotest.fail "expected a session reply")
        frames)
    [ (2, 64); (4, 1000) ]

let () =
  Alcotest.run "serve"
    [
      ( "canon",
        [
          Alcotest.test_case "permutation invariance" `Quick
            test_canon_permutation_invariance;
          Alcotest.test_case "idempotent" `Quick test_canon_is_idempotent;
          Alcotest.test_case "schedule mapping" `Quick
            test_canon_schedule_mapping;
          Alcotest.test_case "prehash collides on permutations" `Quick
            test_canon_prehash_collides_on_permutations;
          Alcotest.test_case "prehash store roundtrip" `Quick
            test_canon_prehash_roundtrip_store;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "eviction event and size gauge" `Quick
            test_cache_evict_event;
          Alcotest.test_case "overwrite" `Quick test_cache_overwrite;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "exact on small" `Quick test_dispatch_exact_small;
          Alcotest.test_case "deadline degrades" `Quick
            test_dispatch_deadline_degrades;
          Alcotest.test_case "unknown solver" `Quick
            test_dispatch_unknown_solver;
          Alcotest.test_case "lpt inapplicable" `Quick
            test_dispatch_lpt_inapplicable;
          Alcotest.test_case "pressure sheds heavy tier" `Quick
            test_dispatch_pressure_sheds;
        ] );
      ( "proto",
        [
          Alcotest.test_case "request roundtrip" `Quick
            test_proto_request_roundtrip;
          Alcotest.test_case "response roundtrip" `Quick
            test_proto_response_roundtrip;
          Alcotest.test_case "stats frame roundtrip" `Quick
            test_proto_stats_roundtrip;
          Alcotest.test_case "events frame roundtrip" `Quick
            test_proto_events_roundtrip;
          Alcotest.test_case "health frame roundtrip" `Quick
            test_proto_health_roundtrip;
          Alcotest.test_case "malformed resync" `Quick
            test_proto_malformed_resync;
          Alcotest.test_case "trace roundtrip" `Quick
            test_proto_trace_roundtrip;
          Alcotest.test_case "explain roundtrip" `Quick
            test_proto_explain_roundtrip;
          Alcotest.test_case "session frame roundtrip" `Quick
            test_proto_session_roundtrip;
          Alcotest.test_case "session malformed resync" `Quick
            test_proto_session_resync;
          Alcotest.test_case "incremental byte-at-a-time" `Quick
            test_incremental_byte_at_a_time;
          Alcotest.test_case "incremental every split point" `Quick
            test_incremental_every_split;
          Alcotest.test_case "incremental truncation" `Quick
            test_incremental_truncation;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache roundtrip" `Quick
            test_server_cache_roundtrip;
          Alcotest.test_case "stats frame" `Quick test_server_stats_frame;
          Alcotest.test_case "events frame" `Quick test_server_events_frame;
          Alcotest.test_case "health frame" `Quick test_server_health_frame;
          Alcotest.test_case "slow-request dump" `Quick test_server_slow_dump;
          Alcotest.test_case "socket session" `Quick test_server_socket_session;
          Alcotest.test_case "trace adoption" `Quick
            test_server_trace_adoption;
          Alcotest.test_case "explain acceptance" `Quick
            test_server_explain_acceptance;
          Alcotest.test_case "events filter" `Quick test_server_events_filter;
          Alcotest.test_case "generational prehash rotation" `Quick
            test_server_prehash_rotation;
        ] );
      ( "mux",
        [
          Alcotest.test_case "tcp pipelining" `Quick test_mux_tcp_pipeline;
          Alcotest.test_case "overload shedding" `Quick
            test_mux_sheds_under_overload;
          Alcotest.test_case "shed_pressure under a saturated lattice" `Quick
            test_mux_shed_pressure;
          Alcotest.test_case "session frames keep their order" `Quick
            test_mux_session_order;
        ] );
      ( "router",
        [
          Alcotest.test_case "consistent-hash ring" `Quick test_router_ring;
          Alcotest.test_case "shard affinity" `Quick test_router_affinity;
        ] );
      ( "session",
        [
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "errors" `Quick test_session_errors;
          Alcotest.test_case "idle eviction" `Quick
            test_session_idle_eviction;
        ] );
    ]
