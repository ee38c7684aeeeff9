(* The traced run's layer ledger: the workload's frames replayed
   in-process, once through [Serve.Server.handle_incoming] (the whole
   server) and once layer by layer through the same public calls the
   server makes, each wrapped in a span.

   The layer-by-layer pass keeps its own state (a result cache, the set
   of seen pre-hashes, a session registry and per-session mirrors) in
   step with the server's, so every call sees the state the server's
   call saw. Heavy calls that only exist to be timed (the portfolio
   taken apart, repair, lower bounds) run for timed ops only; set-up
   frames just advance the state. *)

module P = Serve.Proto
module I = Core.Instance

type mirror = {
  mutable inst : I.t;
  mutable seed : int array option;  (** last resolve's schedule, the repair seed *)
  base : string;
  mutable delta : string;  (** digest of the mutations so far *)
}

type t = {
  ledger : Ledger.t;
  scratch : Ledger.t;  (** spans of set-up frames, never reported *)
  server : Serve.Server.t;
  cache : Serve.Session.cached Serve.Cache.t;
  seen : (int, unit) Hashtbl.t;
  registry : Serve.Session.t;
  registry_cache : Serve.Session.cached Serve.Cache.t;
  mirrors : (string, mirror) Hashtbl.t;
  mutable timed_ops : int;
  mutable frames : int;
  mutable bytes : int;
  mutable alloc_bytes : float;
  mutable majors : int;
}

let create ledger ~cache_capacity ~max_sessions =
  let session = { Serve.Session.default_config with max_sessions } in
  {
    ledger;
    scratch = Ledger.create ();
    server =
      Serve.Server.create
        { Serve.Server.default_config with cache_capacity; jobs = 1; session };
    cache = Serve.Cache.create ~capacity:cache_capacity;
    seen = Hashtbl.create 256;
    registry = Serve.Session.create session;
    registry_cache = Serve.Cache.create ~capacity:cache_capacity;
    mirrors = Hashtbl.create 32;
    timed_ops = 0;
    frames = 0;
    bytes = 0;
    alloc_bytes = 0.0;
    majors = 0;
  }

let shutdown t = Serve.Server.shutdown t.server
let placeholder = { Serve.Session.makespan = 0.0; assignment = [||]; solver = "" }

let decode frame =
  let inc = P.Incremental.create () in
  P.Incremental.feed inc frame;
  match P.Incremental.next_frame inc with
  | None -> failwith "replay: frame did not assemble"
  | Some f -> (
      match P.incoming_of_frame f with
      | Ok incoming -> incoming
      | Error msg -> failwith ("replay: frame did not decode: " ^ msg))

let attempt f = try ignore (f ()) with Invalid_argument _ -> ()

(* Dispatch.solve on a portfolio-sized instance, one public call at a
   time: the fast path, then every portfolio member (the rounding split
   into its LP lower bound and the rounding proper), then the polish. *)
let decomposed_solve ledger inst =
  let sp name f = Ledger.span ledger name f in
  let module A = Algos in
  sp "dispatch.decomposed" @@ fun () ->
  sp "algos.fast_path" (fun () ->
      attempt (fun () -> A.List_scheduling.schedule inst);
      attempt (fun () ->
          A.List_scheduling.schedule ~order:A.List_scheduling.By_class inst);
      attempt (fun () -> A.Lpt.schedule inst);
      attempt (fun () -> A.Batch_lpt.schedule inst));
  let n = I.num_jobs inst in
  if n > 12 && n <= 200 then
    sp "algos.portfolio" @@ fun () ->
    let results = ref [] in
    let keep f =
      match f () with
      | r -> results := r :: !results
      | exception Invalid_argument _ -> ()
    in
    sp "algos.greedy_members" (fun () ->
        keep (fun () -> A.List_scheduling.schedule inst);
        keep (fun () ->
            A.List_scheduling.schedule ~order:A.List_scheduling.Longest_first
              inst);
        keep (fun () -> A.Lpt.schedule inst);
        keep (fun () -> A.Batch_lpt.schedule inst));
    sp "algos.ptas" (fun () -> keep (fun () -> A.Uniform_ptas.schedule ~eps:0.5 inst));
    sp "algos.rounding" (fun () ->
        keep (fun () ->
            let bound = sp "lp.lower_bound" (fun () -> A.Lp_um.lower_bound inst) in
            fst
              (A.Randomized_rounding.round (Workloads.Rng.create 1) inst
                 bound.A.Lp_um.solution)));
    sp "algos.special" (fun () ->
        keep (fun () -> A.Ra_class_uniform.schedule inst);
        keep (fun () -> A.Um_class_uniform.schedule inst));
    match !results with
    | [] -> ()
    | first :: rest ->
        let best =
          List.fold_left
            (fun (b : A.Common.result) (r : A.Common.result) ->
              if r.A.Common.makespan < b.A.Common.makespan then r else b)
            first rest
        in
        sp "algos.local_search" (fun () -> ignore (A.Local_search.polish inst best))

(* A solve frame, as Server.handle_request takes it: pre-hash; a seen
   pre-hash canonicalizes and looks up; an unseen one solves the
   original labeling and stores it under its canonical key. *)
let solve_layers t ledger ~timed inst =
  let sp name f = Ledger.span ledger name f in
  let ph = sp "canon.prehash" (fun () -> Serve.Canon.prehash inst) in
  let store () =
    let c = sp "canon.canonicalize" (fun () -> Serve.Canon.canonicalize inst) in
    let key = sp "canon.key" (fun () -> Core.Instance_io.to_string c.Serve.Canon.instance) in
    sp "cache.put" (fun () -> Serve.Cache.put t.cache key placeholder);
    Hashtbl.replace t.seen ph ()
  in
  let solve () =
    if timed then begin
      ignore (sp "dispatch.solve" (fun () -> Serve.Dispatch.solve inst));
      decomposed_solve ledger inst
    end
  in
  if Hashtbl.mem t.seen ph then begin
    let c = sp "canon.canonicalize" (fun () -> Serve.Canon.canonicalize inst) in
    let key = sp "canon.key" (fun () -> Core.Instance_io.to_string c.Serve.Canon.instance) in
    match sp "cache.find" (fun () -> Serve.Cache.find t.cache key) with
    | Some _ -> ()
    | None ->
        solve ();
        sp "cache.put" (fun () -> Serve.Cache.put t.cache key placeholder)
  end
  else begin
    solve ();
    store ()
  end

let fold_digest prev text = Digest.to_hex (Digest.string (prev ^ "\n" ^ text))

(* A session frame: the registry call itself, then — for resolves — the
   layers behind it, chosen by the mode the server reported. *)
let session_layers t ledger ~timed (req : P.session_request)
    (response : P.response) =
  let sp name f = Ledger.span ledger name f in
  let sid = req.P.sid in
  let handle name =
    sp name (fun () ->
        Serve.Session.handle t.registry ~cache:t.registry_cache
          ~default_deadline_ms:None ~pressure:(fun () -> false) req)
  in
  let mirror () = Hashtbl.find t.mirrors sid in
  let mutated m inst seed text =
    m.inst <- inst;
    m.seed <- seed;
    m.delta <- fold_digest m.delta text
  in
  match req.P.op with
  | P.S_create inst ->
      ignore (handle "session.create");
      let text = Core.Instance_io.to_string inst in
      Hashtbl.replace t.mirrors sid
        {
          inst;
          seed = None;
          base = Digest.to_hex (Digest.string text);
          delta = Digest.to_hex (Digest.string text);
        }
  | P.S_add_jobs jobs ->
      ignore (handle "session.mutate");
      let m = mirror () in
      mutated m (I.append_jobs m.inst jobs)
        (Option.map (fun s -> Array.append s (Array.make (List.length jobs) (-1))) m.seed)
        (String.concat ";" (List.map (fun j -> Wire.add_frame ~sid:"" j) jobs))
  | P.S_drop_jobs ids ->
      ignore (handle "session.mutate");
      let m = mirror () in
      let keep =
        List.filter (fun j -> not (List.mem j ids)) (List.init (I.num_jobs m.inst) Fun.id)
      in
      mutated m (I.induced m.inst keep)
        (Option.map (fun s -> Array.of_list (List.map (fun j -> s.(j)) keep)) m.seed)
        (String.concat ";" (List.map string_of_int ids))
  | P.S_resolve _ -> (
      ignore (handle "session.resolve");
      let m = mirror () in
      let key = Printf.sprintf "session:%s:%s" m.base m.delta in
      let hit = sp "cache.find" (fun () -> Serve.Cache.find t.cache key) in
      match response with
      | P.Session_reply { mode = Some mode; solve = Some r; _ } ->
          (if timed && hit = None then
             match (mode, m.seed) with
             | ("repair" | "fallback"), Some seed ->
                 ignore
                   (sp "incremental.repair" (fun () ->
                        Algos.Incremental.repair ~polish_steps:64 m.inst ~seed));
                 ignore (sp "bounds.lower_bound" (fun () -> Core.Bounds.lower_bound m.inst));
                 if mode = "fallback" then
                   ignore (sp "dispatch.solve" (fun () -> Serve.Dispatch.solve m.inst))
             | _ -> ignore (sp "dispatch.solve" (fun () -> Serve.Dispatch.solve m.inst)));
          if hit = None then
            sp "cache.put" (fun () -> Serve.Cache.put t.cache key placeholder);
          m.seed <- Some r.P.assignment
      | _ -> ())
  | P.S_close -> ignore (handle "session.close")

(* Run one op's frames. Spans and samples are recorded only for timed
   ops; set-up ops advance the state silently. *)
let op t ~timed ~index frames =
  let ledger = if timed then t.ledger else t.scratch in
  let sp name f = Ledger.span ledger name f in
  if timed then begin
    t.ledger.Ledger.op <- index;
    t.timed_ops <- t.timed_ops + 1
  end;
  let handled = ref 0.0 in
  sp "replay.op" (fun () ->
      Array.iter
        (fun frame ->
          let incoming = sp "proto.decode" (fun () -> decode frame) in
          let g0 = Gc.quick_stat () in
          let t0 = Ledger.now_us () in
          let response =
            sp "server.handle" (fun () -> Serve.Server.handle_incoming t.server incoming)
          in
          handled := !handled +. (Ledger.now_us () -. t0);
          let g1 = Gc.quick_stat () in
          let reply = sp "proto.encode" (fun () -> P.response_to_string response) in
          if timed then begin
            t.frames <- t.frames + 1;
            t.bytes <- t.bytes + String.length frame + String.length reply;
            t.alloc_bytes <-
              t.alloc_bytes
              +. 8.0
                 *. (g1.Gc.minor_words -. g0.Gc.minor_words
                    +. g1.Gc.major_words -. g0.Gc.major_words
                    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words));
            t.majors <- t.majors + (g1.Gc.major_collections - g0.Gc.major_collections)
          end;
          sp "layers" (fun () ->
              match incoming with
              | P.Solve req -> solve_layers t ledger ~timed req.P.instance
              | P.Session req -> session_layers t ledger ~timed req response
              | _ -> ()))
        frames);
  if timed then begin
    Ledger.add_sample t.ledger "server.handle_op" !handled;
    t.ledger.Ledger.op <- -1
  end

(* Leaf layer calls: disjoint pieces of what handle_incoming does, so
   their sum over the handled time is the share the named layers
   explain. *)
let leaves =
  [
    "canon.prehash";
    "canon.canonicalize";
    "canon.key";
    "cache.find";
    "cache.put";
    "dispatch.solve";
    "session.mutate";
    "incremental.repair";
    "bounds.lower_bound";
  ]

let coverage t =
  let handled = Ledger.total t.ledger "server.handle" in
  if handled <= 0.0 then nan
  else
    List.fold_left (fun acc name -> acc +. Ledger.total t.ledger name) 0.0 leaves
    /. handled
