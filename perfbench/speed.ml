(* Host-speed correction.

   On a shared host the speed of one core drifts by 20-70% over minutes,
   for two reasons, and a closed loop run in a slow stretch reads slow on
   every op. Raw wall times of runs minutes apart then disagree by more
   than any bound a code change could be judged against. Both reasons
   are measured during the run and taken out of every reported time:

   - Steal: the hypervisor runs other guests while ours waits. Linux
     counts it, host-wide, in /proc/stat. The steal booked during an op
     is taken out of its latency, and an interval's out of its wall
     time. (CPU time never includes it.)
   - Contention: neighbours on the same physical core or memory bus
     make the same work take longer. The client times a fixed kernel of
     its own (allocation, a sort, string hashing, a list fold; no
     program code) between ops, about once per [every_us] of op time,
     while the server is idle. Its mean CPU time against [nominal_us]
     is the run's slowness; times are divided by it.

   A change to the program moves a corrected time by the same factor as
   the raw one: neither correction runs or times program code. What
   they cannot see is a server that keeps a core busy between replies
   (it would slow the kernel); [server_cpu_ms_per_op] still shows that
   work. Contention that slows the server's work more than the kernel
   (solve-cold's LP and GC) is only partly taken out. *)

(* The kernel's mean CPU time on the 2-core x86-64 VM the benchmark was
   tuned on, in a quiet stretch; corrected times read close to raw ones
   there. *)
let nominal_us = 720.0

(* Calibrate once per this much op time: ~4% of a window. *)
let every_us = 20_000.0

let kernel () =
  let x = ref 12345 in
  let a =
    Array.init 1024 (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        float_of_int !x)
  in
  Array.sort Float.compare a;
  let h = Hashtbl.create 16 in
  for i = 0 to 255 do
    Hashtbl.replace h (string_of_int (i * 7919)) a.(i)
  done;
  let s = ref 0.0 in
  for i = 0 to 1023 do
    match Hashtbl.find_opt h (string_of_int ((i land 255) * 7919)) with
    | Some v -> s := !s +. v
    | None -> ()
  done;
  let l = List.init 512 (fun i -> float_of_int i *. a.(i)) in
  s := !s +. List.fold_left ( +. ) 0.0 (List.rev l);
  ignore (Sys.opaque_identity !s)

(* Host-wide stolen time in µs: the steal column of the first line of
   /proc/stat, in 10 ms ticks. Only a busy vCPU can be stolen from, and
   in a closed loop that is the one serving the op in flight. One op's
   reading is coarse, but exact on average, and an op that no steal
   touched nearly always reads 0. *)
let stolen_us () =
  match In_channel.with_open_bin "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal *. 10_000.0
      | _ -> 0.0)
  | None | (exception Sys_error _) -> 0.0

(* This process's CPU time in µs: exact, and free of steal. *)
let cpu_us () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e6

type t = {
  mutable samples : int;
  mutable kernel_cpu_us : float;  (** CPU time of all kernel runs *)
  mutable spent_us : float;  (** client wall time spent calibrating *)
  mutable owed_us : float;  (** op time since the last kernel run *)
}

let create () = { samples = 0; kernel_cpu_us = 0.0; spent_us = 0.0; owed_us = 0.0 }

(* Call after each op with its duration. *)
let after_op t op_us =
  t.owed_us <- t.owed_us +. op_us;
  if t.owed_us >= every_us then begin
    t.owed_us <- 0.0;
    let w0 = Ledger.now_us () in
    let c0 = cpu_us () in
    kernel ();
    t.kernel_cpu_us <- t.kernel_cpu_us +. (cpu_us () -. c0);
    t.samples <- t.samples + 1;
    t.spent_us <- t.spent_us +. (Ledger.now_us () -. w0)
  end

type mark = { wall : float; stolen : float; spent : float }

let mark t = { wall = Ledger.now_us (); stolen = stolen_us (); spent = t.spent_us }

(* An interval since [m], calibration left out of its wall time. *)
type interval = { wall_us : float; stolen_us : float }

let since t m =
  let wall_us = Ledger.now_us () -. m.wall -. (t.spent_us -. m.spent) in
  { wall_us; stolen_us = Float.min wall_us (Float.max 0.0 (stolen_us () -. m.stolen)) }

let unstolen i = if i.wall_us > 0.0 then 1.0 -. (i.stolen_us /. i.wall_us) else 1.0

(* The kernel's mean CPU time over [nominal_us]; a run too short to take
   a sample counts as nominal. *)
let slowness t =
  if t.samples = 0 then 1.0
  else t.kernel_cpu_us /. float_of_int t.samples /. nominal_us

(* A steal-free time (CPU time, or wall time with its steal taken out)
   on a nominal host. *)
let nominal t x = x /. slowness t

(* A wall time measured during [i], on a nominal host. *)
let wall_time t i x = nominal t (x *. unstolen i)
