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
   competitor indexes, which know nothing about Bw_obs. On the null sink
   the driver comes back unchanged. *)
let instrument obs (d : 'k driver) : 'k driver =
  if not (Bw_obs.enabled obs) then d
  else
    let timed ~tid series f =
      let t0 = Bw_obs.now_ns () in
      let r = f () in
      Bw_obs.observe obs ~tid series (Bw_obs.now_ns () - t0);
      r
    in
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

type result = { ops : int; seconds : float; mops : float }

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
    }
  end

(* ------------------------------------------------------------------ *)
(* Interleaved rounds                                                  *)
(* ------------------------------------------------------------------ *)

(* [rounds ~repeats cells] runs every cell once per round for [repeats]
   rounds, in order in even rounds and reversed in odd ones, so a drift
   of the host lands on every cell of a row alike rather than on the one
   that always runs last. [(rounds ~repeats cells).(i).(r)] is cell [i]'s
   value in round [r]. *)
let rounds ~repeats (cells : (unit -> float) array) =
  if repeats < 1 then invalid_arg "Runner.rounds: repeats < 1";
  let n = Array.length cells in
  let v = Array.make_matrix n repeats 0.0 in
  for r = 0 to repeats - 1 do
    for j = 0 to n - 1 do
      let i = if r mod 2 = 0 then j else n - 1 - j in
      v.(i).(r) <- cells.(i) ()
    done
  done;
  v

type spread = { median : float; q1 : float; q3 : float }

let spread xs =
  let p = Bw_util.Stats.percentile xs in
  { median = Bw_util.Stats.median xs; q1 = p 25.0; q3 = p 75.0 }

(* A ratio of two cells is taken per round, where both share the round's
   drift, and the row reports their median: not a ratio of the two
   medians. *)
let ratio_spread num den = spread (Array.map2 ( /. ) num den)

(* Time one row through [rounds] and format it: each cell as its median,
   its quartiles and [unit_]; then, with [~ratio:(name, i, j)], the
   unitless ratio of cell [i] to cell [j]. *)
let timed_row ?(unit_ = "Mops/s") ?ratio ~repeats label cells =
  let v = rounds ~repeats (Array.of_list (List.map snd cells)) in
  let b = Buffer.create 160 in
  let column name s unit_ =
    Printf.bprintf b " | %s %8.3f [%.3f, %.3f]%s" name s.median s.q1 s.q3
      unit_
  in
  Printf.bprintf b "%-34s" label;
  List.iteri
    (fun i (name, _) -> column name (spread v.(i)) (" " ^ unit_))
    cells;
  Option.iter
    (fun (name, i, j) -> column name (ratio_spread v.(i) v.(j)) "")
    ratio;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Table output                                                        *)
(* ------------------------------------------------------------------ *)

let print_header title =
  Printf.printf "\n=== %s ===\n%!" title

let print_row ?(unit_ = "Mops/s") label cells =
  Printf.printf "%-34s" label;
  List.iter (fun (name, v) -> Printf.printf " | %s %8.3f" name v) cells;
  Printf.printf " (%s)\n%!" unit_
