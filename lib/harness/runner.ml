(** Benchmark harness: drives any index through YCSB-style traces with a
    configurable number of worker domains and measures throughput and
    memory. Software event counters live in each index's {!Bw_obs}
    registry.

    The protocol mirrors the paper's framework (§5): a load phase inserts
    [num_keys] keys (measured and reported as the Insert-only workload),
    then the measured phase replays pre-generated per-thread op traces.
    Worker domains synchronize on a start barrier so trace generation and
    domain spawning never pollute the measured section. *)

(* ------------------------------------------------------------------ *)
(* Drivers: a uniform closure-record view of one index instance         *)
(* ------------------------------------------------------------------ *)

(* The record itself lives in Index_iface so the server and shard layers
   can consume drivers without depending on the harness; re-exporting it
   here keeps every [Runner.driver] reference (and [{ Runner.name; .. }]
   construction) working unchanged. *)
type 'k driver = 'k Index_iface.driver = {
  name : string;
  insert : tid:int -> 'k -> int -> bool;
  read : tid:int -> 'k -> int option;
  update : tid:int -> 'k -> int -> bool;
  remove : tid:int -> 'k -> bool;
  scan : tid:int -> 'k -> n:int -> ('k -> int -> unit) -> int;
  batch :
    (tid:int ->
    'k Index_iface.batch_op array ->
    Index_iface.batch_result array)
    option;
  start_aux : unit -> unit;
  stop_aux : unit -> unit;
  thread_done : tid:int -> unit;
  memory_words : unit -> int;
}

(* Wrap a driver so every operation records its latency into [obs]. The
   Bw-Tree drivers measure inside the tree instead (closer to the op,
   and they also see restarts/chain depths) — this wrapper is for the
   competitor indexes, which know nothing about Bw_obs.

   Idempotent: instrumenting an already-instrumented driver returns it
   unchanged, so a call site that both asks for --metrics and routes
   through a stats probe (which instruments on its own) doesn't record
   every latency twice. Wrapper identity is tracked physically — the
   closures are unique to each wrap — and the registry is scrubbed of
   dead entries as it is consulted, so it never grows past the handful
   of drivers a process instruments. *)
let instrumented : Obj.t Weak.t ref = ref (Weak.create 8)

let is_instrumented d =
  let w = !instrumented in
  let found = ref false in
  for i = 0 to Weak.length w - 1 do
    match Weak.get w i with
    | Some o when o == Obj.repr d -> found := true
    | _ -> ()
  done;
  !found

let remember_instrumented d =
  let w = !instrumented in
  let slot = ref (-1) in
  for i = Weak.length w - 1 downto 0 do
    if not (Weak.check w i) then slot := i
  done;
  if !slot >= 0 then Weak.set w !slot (Some (Obj.repr d))
  else begin
    let w' = Weak.create (2 * Weak.length w) in
    Weak.blit w 0 w' 0 (Weak.length w);
    Weak.set w' (Weak.length w) (Some (Obj.repr d));
    instrumented := w'
  end

let instrument obs (d : 'k driver) : 'k driver =
  if (not (Bw_obs.enabled obs)) || is_instrumented d then d
  else
    let timed ~tid series f =
      let t0 = Bw_obs.now_ns () in
      let r = f () in
      Bw_obs.observe obs ~tid series (Bw_obs.now_ns () - t0);
      r
    in
    let w =
      {
        d with
        insert =
          (fun ~tid k v ->
            timed ~tid Bw_obs.Lat_insert (fun () -> d.insert ~tid k v));
        read =
          (fun ~tid k ->
            timed ~tid Bw_obs.Lat_lookup (fun () -> d.read ~tid k));
        update =
          (fun ~tid k v ->
            timed ~tid Bw_obs.Lat_update (fun () -> d.update ~tid k v));
        remove =
          (fun ~tid k ->
            timed ~tid Bw_obs.Lat_delete (fun () -> d.remove ~tid k));
        scan =
          (fun ~tid k ~n visit ->
            timed ~tid Bw_obs.Lat_scan (fun () -> d.scan ~tid k ~n visit));
      }
    in
    remember_instrumented w;
    w

(* ------------------------------------------------------------------ *)
(* Start barrier                                                       *)
(* ------------------------------------------------------------------ *)

module Barrier = struct
  type t = { waiting : int Atomic.t; released : bool Atomic.t; parties : int }

  let create parties =
    { waiting = Atomic.make 0; released = Atomic.make false; parties }

  let arrive t =
    let n = 1 + Atomic.fetch_and_add t.waiting 1 in
    if n = t.parties then Atomic.set t.released true
    else
      while not (Atomic.get t.released) do
        Domain.cpu_relax ()
      done
end

(* A reusable phase barrier: workers [await] at the end of each phase; a
   controller [wait_all]s, runs its checks while every worker is parked,
   then [release]s the next phase. Unlike {!Barrier} it can be crossed any
   number of times, which is what the stress harness's
   work/quiesce/check/resume cycle needs. *)
module Phaser = struct
  type t = { arrived : int Atomic.t; phase : int Atomic.t; parties : int }

  let create parties =
    { arrived = Atomic.make 0; phase = Atomic.make 0; parties }

  let await t =
    let p = Atomic.get t.phase in
    ignore (Atomic.fetch_and_add t.arrived 1);
    while Atomic.get t.phase = p do
      Domain.cpu_relax ()
    done

  let wait_all t =
    while Atomic.get t.arrived < t.parties do
      Domain.cpu_relax ()
    done

  let release t =
    Atomic.set t.arrived 0;
    ignore (Atomic.fetch_and_add t.phase 1)
end

(* ------------------------------------------------------------------ *)
(* Measured runs                                                       *)
(* ------------------------------------------------------------------ *)

type result = {
  ops : int;
  seconds : float;
  mops : float;
  mem_words : int;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* Run one phase: worker [tid] executes [work tid] after the barrier.
   Returns the wall-clock of the slowest worker section. *)
let run_phase ~nthreads (work : int -> unit) =
  if nthreads = 1 then begin
    let (), dt = time (fun () -> work 0) in
    dt
  end
  else begin
    let barrier = Barrier.create nthreads in
    let t_start = ref 0.0 in
    let domains =
      Array.init nthreads (fun tid ->
          Domain.spawn (fun () ->
              Barrier.arrive barrier;
              if tid = 0 then t_start := Unix.gettimeofday ();
              work tid))
    in
    Array.iter Domain.join domains;
    Unix.gettimeofday () -. !t_start
  end

let exec_op (d : 'k driver) ~tid (op : 'k Workload.op) =
  match op with
  | Workload.Insert (k, v) -> ignore (d.insert ~tid k v)
  | Workload.Read k -> ignore (d.read ~tid k)
  | Workload.Update (k, v) -> ignore (d.update ~tid k v)
  | Workload.Scan (k, n) -> ignore (d.scan ~tid k ~n (fun _ _ -> ()))

(* Load phase: insert the key set with [nthreads] workers (striped), and
   report it as the Insert-only workload result. *)
let load (d : 'k driver) ~nthreads (trace : ('k * int) array) =
  d.start_aux ();
  let n = Array.length trace in
  let seconds =
    run_phase ~nthreads (fun tid ->
        let i = ref tid in
        while !i < n do
          let k, v = trace.(!i) in
          ignore (d.insert ~tid k v);
          i := !i + nthreads
        done;
        d.thread_done ~tid)
  in
  {
    ops = n;
    seconds;
    mops = Bw_util.Stats.throughput_mops ~ops:n ~seconds;
    mem_words = 0;
  }

(* Measured phase over pre-generated per-thread traces. *)
let run (d : 'k driver) (traces : 'k Workload.op array array) =
  let nthreads = Array.length traces in
  d.start_aux ();
  let seconds =
    run_phase ~nthreads (fun tid ->
        let ops = traces.(tid) in
        for i = 0 to Array.length ops - 1 do
          exec_op d ~tid ops.(i)
        done;
        d.thread_done ~tid)
  in
  let ops = Array.fold_left (fun acc a -> acc + Array.length a) 0 traces in
  {
    ops;
    seconds;
    mops = Bw_util.Stats.throughput_mops ~ops ~seconds;
    mem_words = 0;
  }

(* Measured phase in batches of [batch] point ops: each worker fills a
   reusable request buffer from its trace and hands it to
   [Index_iface.exec_batch] (the driver's native batch path, or the
   per-op fallback). Scans flush the pending batch and run per-op, same
   order as {!run}. *)
let run_batched (d : 'k driver) ~batch (traces : 'k Workload.op array array) =
  if batch <= 1 then run d traces
  else begin
    let nthreads = Array.length traces in
    d.start_aux ();
    let seconds =
      run_phase ~nthreads (fun tid ->
          let ops = traces.(tid) in
          (* allocated on the first pending op (no dummy of type 'k
             batch_op exists), then reused for every full batch;
             Bw_util.Arr.make so a large --batch doesn't force a minor
             collection at buffer birth *)
          let buf = ref None in
          let len = ref 0 in
          let flush () =
            if !len > 0 then begin
              let b = Option.get !buf in
              let sub = if !len = batch then b else Array.sub b 0 !len in
              ignore (Index_iface.exec_batch d ~tid sub);
              len := 0
            end
          in
          let push op =
            let b =
              match !buf with
              | Some b -> b
              | None ->
                  let b = Bw_util.Arr.make batch op in
                  buf := Some b;
                  b
            in
            b.(!len) <- op;
            incr len;
            if !len = batch then flush ()
          in
          Array.iter
            (fun op ->
              match op with
              | Workload.Insert (k, v) -> push (Index_iface.Bop_insert (k, v))
              | Workload.Read k -> push (Index_iface.Bop_read k)
              | Workload.Update (k, v) -> push (Index_iface.Bop_update (k, v))
              | Workload.Scan (k, n) ->
                  flush ();
                  ignore (d.scan ~tid k ~n (fun _ _ -> ())))
            ops;
          flush ();
          d.thread_done ~tid)
    in
    let ops = Array.fold_left (fun acc a -> acc + Array.length a) 0 traces in
    {
      ops;
      seconds;
      mops = Bw_util.Stats.throughput_mops ~ops ~seconds;
      mem_words = 0;
    }
  end

let with_memory (d : _ driver) (r : result) =
  { r with mem_words = d.memory_words () }

(* Median over [repeats] measured runs (fresh traces are the caller's
   concern; reusing the same trace arrays is fine for read-dominated
   mixes). *)
let median_of ~repeats f =
  let xs = Array.init (max 1 repeats) (fun _ -> (f ()).mops) in
  Bw_util.Stats.median xs

(* ------------------------------------------------------------------ *)
(* Table output                                                        *)
(* ------------------------------------------------------------------ *)

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_row ?(unit_ = "Mops/s") label cells =
  Printf.printf "%-34s" label;
  List.iter (fun (name, v) -> Printf.printf " | %s %8.3f" name v) cells;
  Printf.printf " (%s)\n%!" unit_

let print_text_row label text =
  Printf.printf "%-34s | %s\n%!" label text
