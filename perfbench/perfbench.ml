(** The repository's benchmark: three closed-loop YCSB workloads over
    Rand-Int keys at Zipfian skew 0.99, each timed end to end, or traced
    per layer from outside by wrapping the calls into each layer's public
    functions.

    Usage: [perfbench.exe --workload W --seed N --seconds S --trace 0|1]

    - [ycsb-c-point]: point GETs through the [Index_iface] driver of one
      OpenBw-Tree, 1 M keys, 2 worker domains.
    - [ycsb-a-batch]: 50/50 read/update in 256-op [exec_batch] calls over
      a 2-shard in-memory forest, 1 M keys, 2 worker domains.
    - [ycsb-e-served]: 95 % scans / 5 % fresh-key inserts over loopback
      TCP to an in-process server (1 worker) on a durable, fsync'd store,
      100 k keys, one client connection with 16 requests in flight.

    Every answer is checked; the last line of standard output is one JSON
    object [{correct, attempted, failed, metrics}], and a wrong answer or
    lost acknowledged write makes the exit code 1. NOTES.md describes the
    workloads, the metrics and the layer each per-layer metric explains. *)

open Index_iface
module Drivers = Harness.Drivers
module Bw = Drivers.Bw_int
module Store = Drivers.Durable_int
module Server = Bw_server.Server
module Wire = Bw_server.Wire
module Kc = Bw_util.Key_codec

(* CLOCK_MONOTONIC in nanoseconds. [Bw_obs.now_ns] is gettimeofday at
   microsecond resolution and can jump: too coarse for a GET of a few
   microseconds. *)
let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9
let us ns = ns /. 1e3

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                   *)
(* ------------------------------------------------------------------ *)

(* Log-linear buckets, 128 per power of two (< 0.8 % wide), with
   interpolation inside the bucket holding the rank: percentiles of
   millions of ops without storing them, and without the 12.5 % steps of
   [Bw_obs.Histo]. *)
module Lat = struct
  let sub_bits = 7
  let sub = 1 lsl sub_bits

  type t = { counts : int array; mutable n : int; mutable sum : int }

  let create () = { counts = Array.make (64 * sub) 0; n = 0; sum = 0 }

  let msb v =
    let v = ref v and r = ref 0 in
    if !v lsr 32 <> 0 then (v := !v lsr 32; r := 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
    if !v lsr 1 <> 0 then incr r;
    !r

  let bucket v =
    if v < sub then v
    else
      let e = msb v - sub_bits in
      ((e + 1) lsl sub_bits) + ((v lsr e) - sub)

  let bucket_lo b =
    if b < sub then b
    else ((b land (sub - 1)) + sub) lsl ((b lsr sub_bits) - 1)

  let bucket_width b = if b < sub then 1 else 1 lsl ((b lsr sub_bits) - 1)

  let add h v =
    let v = if v < 0 then 0 else v in
    let b = bucket v in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum + v

  let merge hs =
    let h = create () in
    Array.iter
      (fun x ->
        Array.iteri (fun i c -> h.counts.(i) <- h.counts.(i) + c) x.counts;
        h.n <- h.n + x.n;
        h.sum <- h.sum + x.sum)
      hs;
    h

  (* nanoseconds *)
  let quantile h q =
    if h.n = 0 then 0.
    else begin
      let rank = q *. float_of_int h.n in
      let b = ref 0 and cum = ref 0 in
      while
        !b < Array.length h.counts - 1
        && float_of_int (!cum + h.counts.(!b)) < rank
      do
        cum := !cum + h.counts.(!b);
        incr b
      done;
      let c = h.counts.(!b) in
      let frac =
        if c = 0 then 0. else (rank -. float_of_int !cum) /. float_of_int c
      in
      float_of_int (bucket_lo !b) +. (frac *. float_of_int (bucket_width !b))
    end
end

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* One-second windows of a measured phase, aligned to its start. A phase's
   figures are medians over its windows: the host's CPU speed dips by a
   third for a second or two at a time, which then moves one or two
   windows instead of the result. *)
module Win = struct
  let len = 1_000_000_000

  type t = { t0 : int; lat : Lat.t array; ops : int array }

  let create ~t0 ~deadline =
    let n = max 1 ((deadline - t0 + len - 1) / len) in
    { t0; lat = Array.init n (fun _ -> Lat.create ()); ops = Array.make n 0 }

  (* [ops] completed at [t1], the request having taken [dt]; anything
     finishing past the last window is dropped *)
  let add w ~t1 ~dt ~ops =
    let i = (t1 - w.t0) / len in
    if i < Array.length w.ops then begin
      Lat.add w.lat.(i) dt;
      w.ops.(i) <- w.ops.(i) + ops
    end

  let merge ws =
    let w = ws.(0) in
    {
      w with
      lat = Array.mapi (fun i _ -> Lat.merge (Array.map (fun x -> x.lat.(i)) ws)) w.lat;
      ops = Array.mapi (fun i _ -> Array.fold_left (fun a x -> a + x.ops.(i)) 0 ws) w.ops;
    }

  let total w = Lat.merge w.lat

  (* ops/s, median over windows; a window cut short by [t_end] (a phase
     that stopped at its op cap) counts for the time it covered *)
  let throughput w ~t_end =
    median
      (Array.of_list
         (List.filteri
            (fun i _ -> t_end > w.t0 + (i * len))
            (Array.to_list
               (Array.mapi
                  (fun i ops ->
                    let dur = min len (t_end - (w.t0 + (i * len))) in
                    float_of_int ops /. secs (max 1 dur))
                  w.ops))))

  (* nanoseconds, median over windows of each window's quantile *)
  let quantile w q =
    median
      (Array.of_list
         (List.filter_map
            (fun h -> if h.Lat.n = 0 then None else Some (Lat.quantile h q))
            (Array.to_list w.lat)))
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* A span records name, start, end, parent and the request it belongs to,
   into a preallocated per-domain buffer. Only sampled requests open a
   root span; a layer wrapper records a child only while its domain has a
   span open, so unsampled requests cost the wrappers one branch. *)
module Span = struct
  let tree_get = 0
  let forest_batch = 1
  let shard_batch = 2
  let client_req = 3
  let backend = 4
  let wal_scan = 5
  let wal_insert = 6
  let tree_scan = 7
  let tree_insert = 8

  let names =
    [| "bwtree.get"; "bw_shard.batch"; "bwtree.batch"; "bw_client.req";
       "bw_server.backend"; "pagestore.scan"; "pagestore.insert";
       "bwtree.scan"; "bwtree.insert" |]

  let cap = 1 lsl 17

  type buf = {
    base : int;
    name : int array;
    parent : int array;
    req : int array;
    t0 : int array;
    t1 : int array;
    mutable n : int;
    mutable cur : int;
  }

  let bufs = ref []
  let mu = Mutex.create ()

  let fresh () =
    Mutex.lock mu;
    let a () = Array.make cap 0 in
    let b =
      {
        base = List.length !bufs * cap;
        name = a ();
        parent = a ();
        req = a ();
        t0 = a ();
        t1 = a ();
        n = 0;
        cur = -1;
      }
    in
    bufs := b :: !bufs;
    Mutex.unlock mu;
    b

  let key = Domain.DLS.new_key fresh
  let mine () = Domain.DLS.get key

  let enter b nm ~req =
    let i = b.n in
    b.n <- i + 1;
    b.name.(i) <- nm;
    b.parent.(i) <- b.cur;
    b.req.(i) <- req;
    b.t1.(i) <- -1;
    let id = b.base + i in
    b.cur <- id;
    b.t0.(i) <- now ();
    id

  (* -1 when the buffer is (nearly) full: the request goes unsampled *)
  let root b nm ~req = if b.n + 8 >= cap then -1 else enter b nm ~req

  let child b nm =
    if b.cur < 0 || b.n >= cap then -1
    else enter b nm ~req:b.req.(b.cur - b.base)

  let leave b id =
    if id >= 0 then begin
      let i = id - b.base in
      b.t1.(i) <- now ();
      b.cur <- b.parent.(i)
    end

  (* a finished span with no parent in this domain (client requests,
     which overlap each other in the window) *)
  let add b nm ~req ~t0 ~t1 =
    if b.n < cap then begin
      let i = b.n in
      b.n <- i + 1;
      b.name.(i) <- nm;
      b.parent.(i) <- -1;
      b.req.(i) <- req;
      b.t0.(i) <- t0;
      b.t1.(i) <- t1
    end

  type s = { id : int; nm : int; par : int; rq : int; s0 : int; s1 : int }

  (* Every span recorded so far. A parentless server-side span is the
     child of the client span of the same request ([cross] names the
     pair), so one request's spans form one tree across domains. *)
  let collect ?cross () =
    let all =
      List.concat_map
        (fun b ->
          List.init b.n (fun i ->
              {
                id = b.base + i;
                nm = b.name.(i);
                par = b.parent.(i);
                rq = b.req.(i);
                s0 = b.t0.(i);
                s1 = b.t1.(i);
              }))
        !bufs
    in
    match cross with
    | None -> all
    | Some (parent_nm, child_nm) ->
        let by_req = Hashtbl.create 4096 in
        List.iter
          (fun s -> if s.nm = parent_nm then Hashtbl.replace by_req s.rq s.id)
          all;
        List.map
          (fun s ->
            if s.nm = child_nm && s.par < 0 then
              match Hashtbl.find_opt by_req s.rq with
              | Some p -> { s with par = p }
              | None -> s
            else s)
          all

  type agg = { mutable count : int; mutable dur : int; mutable self : int }

  (* Per-name totals of duration and self time (duration minus the part
     its children cover), and the number of spans that are unfinished or
     outlast their parent. *)
  let analyse spans =
    let by_id = Hashtbl.create 4096 in
    List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
    let aggs =
      Array.init (Array.length names) (fun _ -> { count = 0; dur = 0; self = 0 })
    in
    let bad = ref 0 in
    List.iter
      (fun s ->
        if s.s1 < s.s0 then incr bad
        else begin
          let a = aggs.(s.nm) in
          a.count <- a.count + 1;
          a.dur <- a.dur + (s.s1 - s.s0);
          a.self <- a.self + (s.s1 - s.s0)
        end)
      spans;
    List.iter
      (fun s ->
        if s.par >= 0 && s.s1 >= s.s0 then
          match Hashtbl.find_opt by_id s.par with
          | None -> incr bad
          | Some p ->
              if s.s0 < p.s0 || s.s1 > p.s1 then incr bad;
              let a = aggs.(p.nm) in
              a.self <- a.self - (s.s1 - s.s0))
      spans;
    (aggs, !bad)

  let mean_dur a = if a.count = 0 then 0. else float_of_int a.dur /. float_of_int a.count
  let mean_self a = if a.count = 0 then 0. else float_of_int a.self /. float_of_int a.count

  let write path spans =
    let oc = open_out path in
    output_string oc "id\tparent\treq\tname\tstart_ns\tend_ns\n";
    List.iter
      (fun s ->
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" s.id s.par s.rq names.(s.nm)
          s.s0 s.s1)
      spans;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Options, inputs, results                                            *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** a few thousand ops: the benchmark's own test *)
  fault : string;  (** "drop-insert": lose one acknowledged write *)
  dir : string;  (** scratch space: data dir, span dump *)
}

let workloads = [ "ycsb-c-point"; "ycsb-a-batch"; "ycsb-e-served" ]
let window = 16
let batch_size = 256
let setup_reps = 3

(* Keys are Rand-Int: a scramble of the index, offset by the seed so each
   seed loads its own key set. Key [i] is loaded with value [i + 1]. *)
let key_of ~seed i = Workload.Keys.rand_int (i + (seed lsl 32))

(* [len] Zipfian (theta 0.99, scrambled) indexes into [0, n) *)
let zipf_indexes ~seed ~tid ~n ~len =
  let rng = Bw_util.Rng.create ~seed:(Int64.of_int ((seed * 1000) + tid + 1)) in
  let z = Bw_util.Zipf.create ~theta:0.99 ~n () in
  Array.init len (fun _ -> Bw_util.Zipf.sample_scrambled z rng)

let warm_seconds o = if o.small then 0. else 1.0

(* the op cap of one measured phase (per worker domain); only the small
   self-test scale stops on it rather than on the clock *)
let max_ops o = if o.small then 4000 else max_int

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  metrics : metric list;
  report : string list;
  attempted : int;
  failed : int;
}

let per_layer_units =
  [
    ("bwtree.get_us", "us");
    ("bwtree.leaf_cache_hit_ratio", "ratio");
    ("bwtree.leaf_probe_cmps_per_op", "count/op");
    ("bwtree.restarts_per_op", "count/op");
    ("bwtree.alloc_words_per_op", "words/op");
    ("bwtree.batch_us", "us");
    ("bwtree.batch_redescents_per_op", "count/op");
    ("bwtree.failed_cas_per_write", "count/op");
    ("bwtree.consolidations_per_kwrite", "count/kop");
    ("bwtree.gap_reuse_ratio", "ratio");
    ("bwtree.scan_us", "us");
    ("bwtree.splits_per_kinsert", "count/kop");
    ("epoch.reclaim_batches_per_kwrite", "count/kop");
    ("epoch.pending_at_end", "count");
    ("mapping_table.ids_per_key", "ratio");
    ("bw_shard.self_us_per_batch", "us");
    ("bw_shard.imbalance", "ratio");
    ("pagestore.wal_self_us_per_commit", "us");
    ("pagestore.fsyncs_per_commit", "ratio");
    ("pagestore.wal_bytes_per_write", "bytes");
    ("pagestore.disk_bytes_per_user_byte", "ratio");
    ("bw_server.backend_self_us_per_req", "us");
    ("bw_server.req_us", "us");
    ("bw_server.bytes_out_per_op", "bytes");
    ("bw_client.wait_us_per_req", "us");
    ("bw_client.insert_p50_us", "us");
    ("bw_client.insert_p99_us", "us");
    ("tracing_overhead", "ratio");
  ]

(* Per-layer values default to 0: the layer does no work on this
   workload. *)
let layer_metrics tbl =
  List.map
    (fun (name, unit_) ->
      { name; unit_; value = Option.value ~default:0. (Hashtbl.find_opt tbl name) })
    per_layer_units

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Set up [setup_reps] times and keep the last instance, so the reported
   set-up time is a median. *)
let setups ~reps make discard =
  let times = Array.make reps 0. in
  let inst = ref None in
  for i = 0 to reps - 1 do
    Option.iter discard !inst;
    inst := None;
    Gc.compact ();
    let t0 = now () in
    let x = make () in
    times.(i) <- secs (now () - t0);
    inst := Some x
  done;
  (Option.get !inst, median times)

(* Run [work ~tid ~t0 ~deadline] on [nd] fresh domains released together
   at [t0]; returns the results and [t0]. *)
let on_domains nd ~seconds work =
  let go = Atomic.make 0 in
  let ns = int_of_float (seconds *. 1e9) in
  let ds =
    Array.init nd (fun tid ->
        Domain.spawn (fun () ->
            let rec wait () =
              let t0 = Atomic.get go in
              if t0 = 0 then (Domain.cpu_relax (); wait ()) else t0
            in
            let t0 = wait () in
            work ~tid ~t0 ~deadline:(t0 + ns)))
  in
  let t0 = now () in
  Atomic.set go t0;
  (Array.map Domain.join ds, t0)

(* Insert [keys.(i)] -> [i + 1] through [exec_batch] in groups of 256,
   split over [nd] domains: one WAL commit per group on a durable store. *)
let load_batched (d : int driver) ~nd keys =
  let n = Array.length keys in
  let part tid =
    let lo = n * tid / nd and hi = n * (tid + 1) / nd in
    let i = ref lo in
    while !i < hi do
      let base = !i in
      let m = min batch_size (hi - base) in
      let ops = Array.init m (fun j -> Bop_insert (keys.(base + j), base + j + 1)) in
      Array.iter
        (function
          | Bres_applied true -> ()
          | _ -> failwith "perfbench: a load insert was rejected")
        (exec_batch d ~tid ops);
      i := base + m
    done;
    d.thread_done ~tid
  in
  if nd = 1 then part 0
  else begin
    let ds = Array.init (nd - 1) (fun k -> Domain.spawn (fun () -> part (k + 1))) in
    part 0;
    Array.iter Domain.join ds
  end

(* What one worker domain measured. *)
type wres = {
  w_ops : int;
  w_writes : int;
  w_bad : int;
  w_end : int;
  w_words : int;  (** minor words allocated by this domain in the loop *)
  w_win : Win.t;
}

let sum_by f rs = Array.fold_left (fun a r -> a + f r) 0 rs
let last_end t0 rs = Array.fold_left (fun a r -> max a r.w_end) t0 rs

(* Counter deltas of a set of trees and their Bw_obs registries, over one
   measured phase. *)
type tree_counts = {
  splits : int;
  failed_cas : int;
  restarts : int;
  lc_hits : int;
  obs : (Bw_obs.counter * int) list;
}

let snap_counts trees regs =
  let sum f = Array.fold_left (fun a t -> a + f t) 0 trees in
  let st f = sum (fun t -> f (Bw.op_stats t)) in
  {
    splits = st (fun s -> s.Bwtree.splits);
    failed_cas = st (fun s -> s.Bwtree.failed_cas);
    restarts = st (fun s -> s.Bwtree.restarts);
    lc_hits = sum (fun t -> (Bw.leaf_cache_stats t).Bwtree.lc_hits);
    obs = (Bw_obs.snapshot_all regs).Bw_obs.sn_counters;
  }

let obs_delta a b c = List.assoc c b.obs - List.assoc c a.obs

(* The tree-layer ratios every workload shares. *)
let tree_layers tbl a b ~ops ~writes ~inserts =
  let set k v = Hashtbl.replace tbl k v in
  (* share of ops served off a verified leaf-cache entry: a batch probes
     the cache once, for its first key, so batched ops mostly bypass it *)
  set "bwtree.leaf_cache_hit_ratio" (ratio (b.lc_hits - a.lc_hits) ops);
  set "bwtree.leaf_probe_cmps_per_op"
    (ratio (obs_delta a b Bw_obs.C_leaf_probe_cmps) ops);
  set "bwtree.restarts_per_op" (ratio (b.restarts - a.restarts) ops);
  set "bwtree.batch_redescents_per_op"
    (ratio (obs_delta a b Bw_obs.C_batch_redescents) ops);
  set "bwtree.failed_cas_per_write" (ratio (b.failed_cas - a.failed_cas) writes);
  let cons = obs_delta a b Bw_obs.C_consolidations in
  set "bwtree.consolidations_per_kwrite" (1000. *. ratio cons writes);
  set "bwtree.gap_reuse_ratio" (ratio (obs_delta a b Bw_obs.C_leaf_gap_reuses) cons);
  set "bwtree.splits_per_kinsert" (1000. *. ratio (b.splits - a.splits) inserts);
  set "epoch.reclaim_batches_per_kwrite"
    (1000. *. ratio (obs_delta a b Bw_obs.C_reclaim_batches) writes)

let structure_layers tbl trees ~live =
  let pending =
    Array.fold_left (fun a t -> a + Epoch.pending (Bw.epoch t)) 0 trees
  in
  let ids =
    Array.fold_left
      (fun a t ->
        let m = Bw.mapping_table_stats t in
        a + m.Bwtree.allocated - m.freed)
      0 trees
  in
  Hashtbl.replace tbl "epoch.pending_at_end" (float_of_int pending);
  Hashtbl.replace tbl "mapping_table.ids_per_key" (ratio ids live)

(* The structure each key costs: retired garbage still waiting for its
   epoch is dropped first (every worker is quiescent and the epoch
   domain stopped), so the figure does not depend on when the run ended. *)
(* Bw_obs registries exist only in the traced run; the untraced one
   gives trees, WAL and server the null sink. *)
let registries ~traced n =
  if traced then Array.init n (fun _ -> Bw_obs.create ()) else [||]

let sink_of regs i =
  if i < Array.length regs then Bw_obs.sink regs.(i) else Bw_obs.Null

let heap_bytes_per_key trees ~live =
  Array.iter (fun t -> Epoch.flush (Bw.epoch t)) trees;
  let words = Array.fold_left (fun a t -> a + Bw.memory_words t) 0 trees in
  ratio (words * 8) live

let fmt_metric m = Printf.sprintf "%-36s %14.4f %s" m.name m.value m.unit_

let win_lines name w =
  let all = Win.total w and nw = Array.length w.Win.ops in
  List.map
    (fun (suffix, q) ->
      Printf.sprintf
        "%-36s %14.4f us (n=%d; median of %d one-second windows; whole run %.4f)"
        (name ^ suffix) (us (Win.quantile w q)) all.Lat.n nw (us (Lat.quantile all q)))
    [ ("_p50_us", 0.5); ("_p99_us", 0.99) ]

let fail_line ~attempted ~failed =
  Printf.sprintf "%-36s %14.6f (%d failed / %d attempted)" "failed_op_ratio"
    (ratio failed attempted) failed attempted

(* The end-to-end result: [w] holds the latency of the workload's own
   request (GET, 256-op batch, scan); [lat_lines] the report lines naming
   it. *)
let untraced_outcome ~w ~tput ~lat_lines ~setup ~heap ~attempted ~failed ~extra =
  let m =
    [
      { name = "throughput_ops_s"; value = tput; unit_ = "1/s" };
      { name = "req_p50_us"; value = us (Win.quantile w 0.5); unit_ = "us" };
      { name = "req_p99_us"; value = us (Win.quantile w 0.99); unit_ = "us" };
      { name = "setup_s"; value = setup; unit_ = "s" };
      { name = "heap_bytes_per_key"; value = heap; unit_ = "bytes/key" };
    ]
  in
  {
    metrics = m;
    report =
      (fmt_metric (List.nth m 0) :: lat_lines)
      @ [
          fmt_metric (List.nth m 3) ^ Printf.sprintf " (median of %d set-ups)" setup_reps;
          fail_line ~attempted ~failed;
          fmt_metric (List.nth m 4);
        ]
      @ extra;
    attempted;
    failed;
  }

let traced_outcome tbl ~spans ~bad ~extra ~attempted ~failed =
  let m = layer_metrics tbl in
  {
    metrics = m;
    report =
      List.map fmt_metric m @ extra
      @ [
          Printf.sprintf "trace: %d spans, %d unfinished or outlasting their parent"
            (List.length spans) bad;
        ];
    attempted;
    failed = failed + bad;
  }

(* ------------------------------------------------------------------ *)
(* In-process workloads: ycsb-c-point and ycsb-a-batch                 *)
(* ------------------------------------------------------------------ *)

(* One in-process workload: its instance, the loop each of the two worker
   domains runs, and the per-layer figures only it has. *)
type 'i in_process = {
  label : string;
  request : string;  (** what one latency sample times *)
  live : int;  (** keys loaded *)
  make : traced:bool -> unit -> 'i;
  discard : 'i -> unit;  (** stop its background domains *)
  trees : 'i -> Bw.t array;
  regs : 'i -> Bw_obs.t list;
  worker :
    'i -> traced:bool -> max_ops:int -> tid:int -> t0:int -> deadline:int -> wres;
  layers : (string, float) Hashtbl.t -> Span.agg array -> unit;
}

let run_in_process o p =
  let attempted = ref 0 and failed = ref 0 in
  let tally rs =
    attempted := !attempted + sum_by (fun r -> r.w_ops) rs;
    failed := !failed + sum_by (fun r -> r.w_bad) rs
  in
  (* [mark] runs between the warm-up and the measured section *)
  let phase inst ~seconds ~traced mark =
    Gc.compact ();
    if warm_seconds o > 0. then
      tally
        (fst
           (on_domains 2 ~seconds:(warm_seconds o)
              (p.worker inst ~traced:false ~max_ops:max_int)));
    let m = mark () in
    let rs, t0 = on_domains 2 ~seconds (p.worker inst ~traced ~max_ops:(max_ops o)) in
    tally rs;
    let w = Win.merge (Array.map (fun r -> r.w_win) rs) in
    (m, rs, w, Win.throughput w ~t_end:(last_end t0 rs))
  in
  if not o.trace then begin
    let inst, setup = setups ~reps:setup_reps (p.make ~traced:false) p.discard in
    let (), _, w, tput = phase inst ~seconds:o.seconds ~traced:false ignore in
    p.discard inst;
    let heap = heap_bytes_per_key (p.trees inst) ~live:p.live in
    untraced_outcome ~w ~tput ~lat_lines:(win_lines p.request w) ~setup ~heap
      ~attempted:!attempted ~failed:!failed ~extra:[]
  end
  else begin
    let plain = p.make ~traced:false () in
    let (), rs_plain, _, tput_plain =
      phase plain ~seconds:(o.seconds /. 2.) ~traced:false ignore
    in
    p.discard plain;
    let inst = p.make ~traced:true () in
    let trees = p.trees inst in
    let snap () = snap_counts trees (p.regs inst) in
    let before, rs, _, tput = phase inst ~seconds:(o.seconds /. 2.) ~traced:true snap in
    let after = snap () in
    p.discard inst;
    let tbl = Hashtbl.create 32 in
    tree_layers tbl before after
      ~ops:(sum_by (fun r -> r.w_ops) rs)
      ~writes:(sum_by (fun r -> r.w_writes) rs)
      ~inserts:0;
    (* from the untraced instance: Bw_obs probes allocate *)
    Hashtbl.replace tbl "bwtree.alloc_words_per_op"
      (ratio (sum_by (fun r -> r.w_words) rs_plain) (sum_by (fun r -> r.w_ops) rs_plain));
    structure_layers tbl trees ~live:p.live;
    let spans = Span.collect () in
    let aggs, bad = Span.analyse spans in
    p.layers tbl aggs;
    Hashtbl.replace tbl "tracing_overhead" (tput /. tput_plain);
    Span.write (Filename.concat o.dir ("spans-" ^ p.label ^ ".tsv")) spans;
    traced_outcome tbl ~spans ~bad ~extra:[] ~attempted:!attempted ~failed:!failed
  end

(* Point GETs of Zipfian-chosen loaded keys; each must return the loaded
   value. Every 64th GET is traced. *)
let c_worker (d : int driver) ~keys ~trace ~traced ~max_ops ~tid ~t0 ~deadline =
  let win = Win.create ~t0 ~deadline in
  let n = Array.length trace in
  let b = if traced then Some (Span.mine ()) else None in
  let w0 = Gc.minor_words () in
  let ops = ref 0 and bad = ref 0 and j = ref (tid * (n / 2)) and t = ref (now ()) in
  while !t < deadline && !ops < max_ops do
    let idx = trace.(!j) in
    j := if !j + 1 = n then 0 else !j + 1;
    let k = keys.(idx) in
    let s0 = now () in
    let r =
      match b with
      | Some b when !ops land 63 = 0 ->
          let s = Span.root b Span.tree_get ~req:((tid lsl 40) lor !ops) in
          let r = d.read ~tid k in
          Span.leave b s;
          r
      | _ -> d.read ~tid k
    in
    let s1 = now () in
    Win.add win ~t1:s1 ~dt:(s1 - s0) ~ops:1;
    (match r with Some v when v = idx + 1 -> () | _ -> incr bad);
    incr ops;
    t := s1
  done;
  d.thread_done ~tid;
  {
    w_ops = !ops;
    w_writes = 0;
    w_bad = !bad;
    w_end = !t;
    w_words = int_of_float (Gc.minor_words () -. w0);
    w_win = win;
  }

let run_c o =
  let nkeys = if o.small then 20_000 else 1_000_000 in
  let keys = Array.init nkeys (key_of ~seed:o.seed) in
  let trace = zipf_indexes ~seed:o.seed ~tid:0 ~n:nkeys ~len:nkeys in
  run_in_process o
    {
      label = "ycsb-c-point";
      request = "get";
      live = nkeys;
      make =
        (fun ~traced () ->
          let regs = registries ~traced 1 in
          let tree = Bw.create ~obs:(sink_of regs 0) () in
          let d = Drivers.bw_int_driver_of_tree tree in
          d.start_aux ();
          load_batched d ~nd:2 keys;
          (tree, regs, d));
      discard = (fun (_, _, d) -> d.stop_aux ());
      trees = (fun (t, _, _) -> [| t |]);
      regs = (fun (_, r, _) -> Array.to_list r);
      worker = (fun (_, _, d) -> c_worker d ~keys ~trace);
      layers =
        (fun tbl aggs ->
          Hashtbl.replace tbl "bwtree.get_us" (us (Span.mean_dur aggs.(Span.tree_get))));
    }

(* Per domain, a pool of 256-op batches replayed in a loop: 50/50 reads
   and updates of Zipfian-chosen loaded keys. *)
let a_pool ~seed ~tid ~keys ~batches =
  let n = Array.length keys in
  let idx = zipf_indexes ~seed ~tid ~n ~len:(batches * batch_size) in
  let rng = Bw_util.Rng.create ~seed:(Int64.of_int ((seed * 7919) + tid)) in
  Array.init batches (fun b ->
      Array.init batch_size (fun i ->
          let k = keys.(idx.((b * batch_size) + i)) in
          if Bw_util.Rng.next_bool rng then Bop_read k
          else Bop_update (k, (b * batch_size) + i + 1)))

(* Every read must find its key and every update apply. Every 4th batch
   is traced. *)
let a_worker (forest : int driver) ~pools ~traced ~max_ops ~tid ~t0 ~deadline =
  let pool = pools.(tid) in
  let win = Win.create ~t0 ~deadline in
  let n = Array.length pool in
  let b = if traced then Some (Span.mine ()) else None in
  let w0 = Gc.minor_words () in
  let ops = ref 0 and writes = ref 0 and bad = ref 0 and j = ref 0 in
  let t = ref (now ()) in
  while !t < deadline && !ops < max_ops do
    let batch = pool.(!j) in
    let nb = !j in
    j := if !j + 1 = n then 0 else !j + 1;
    let s0 = now () in
    let res =
      match b with
      | Some b when nb land 3 = 0 ->
          let s = Span.root b Span.forest_batch ~req:((tid lsl 40) lor !ops) in
          let r = exec_batch forest ~tid batch in
          Span.leave b s;
          r
      | _ -> exec_batch forest ~tid batch
    in
    let s1 = now () in
    Win.add win ~t1:s1 ~dt:(s1 - s0) ~ops:(Array.length batch);
    for i = 0 to Array.length batch - 1 do
      match (batch.(i), res.(i)) with
      | Bop_read _, Bres_value (Some _) -> ()
      | Bop_update _, Bres_applied true -> incr writes
      | _ -> incr bad
    done;
    ops := !ops + Array.length batch;
    t := s1
  done;
  forest.thread_done ~tid;
  {
    w_ops = !ops;
    w_writes = !writes;
    w_bad = !bad;
    w_end = !t;
    w_words = int_of_float (Gc.minor_words () -. w0);
    w_win = win;
  }

(* A shard driver whose batch calls count their ops and, inside a sampled
   forest batch, record a child span. *)
let traced_shard counts s (d : int driver) : int driver =
  {
    d with
    batch =
      Some
        (fun ~tid ops ->
          ignore (Atomic.fetch_and_add counts.(s) (Array.length ops));
          let b = Span.mine () in
          let sp = Span.child b Span.shard_batch in
          let r = exec_batch d ~tid ops in
          Span.leave b sp;
          r);
  }

let run_a o =
  let nkeys = if o.small then 20_000 else 1_000_000 in
  let keys = Array.init nkeys (key_of ~seed:o.seed) in
  let pools =
    Array.init 2 (fun tid ->
        a_pool ~seed:o.seed ~tid ~keys ~batches:(if o.small then 64 else 2048))
  in
  let counts = Array.init 2 (fun _ -> Atomic.make 0) in
  run_in_process o
    {
      label = "ycsb-a-batch";
      request = "batch";
      live = nkeys;
      make =
        (fun ~traced () ->
          let regs = registries ~traced 2 in
          let trees = Array.init 2 (fun i -> Bw.create ~obs:(sink_of regs i) ()) in
          let shard i =
            let d = Drivers.bw_int_driver_of_tree trees.(i) in
            if traced then traced_shard counts i d else d
          in
          let forest =
            Bw_shard.route_int (Bw_shard.Part.make_int ~lo:0 2) (Array.init 2 shard)
          in
          forest.start_aux ();
          load_batched forest ~nd:2 keys;
          Array.iter (fun c -> Atomic.set c 0) counts;
          (trees, regs, forest));
      discard = (fun (_, _, f) -> f.stop_aux ());
      trees = (fun (t, _, _) -> t);
      regs = (fun (_, r, _) -> Array.to_list r);
      worker = (fun (_, _, f) -> a_worker f ~pools);
      layers =
        (fun tbl aggs ->
          let forest = aggs.(Span.forest_batch) and shard = aggs.(Span.shard_batch) in
          (* tree time per forest batch: all of its shard sub-batches *)
          Hashtbl.replace tbl "bwtree.batch_us"
            (if forest.count = 0 then 0.
             else us (float_of_int shard.dur /. float_of_int forest.count));
          Hashtbl.replace tbl "bw_shard.self_us_per_batch"
            (us (Span.mean_self forest));
          (* ops routed to each shard: warm-up and measured phase *)
          let c = Array.map Atomic.get counts in
          Hashtbl.replace tbl "bw_shard.imbalance"
            (ratio (Array.fold_left max 0 c * Array.length c) (Array.fold_left ( + ) 0 c)));
    }

(* ------------------------------------------------------------------ *)
(* ycsb-e-served                                                       *)
(* ------------------------------------------------------------------ *)

type e_inst = {
  store : Store.t;
  srv : Server.t;
  cl : Bw_client.t;
  regs : Bw_obs.t array;
}

(* Client-side state that outlives one phase. *)
type e_state = {
  keys : int array;  (** loaded keys by index *)
  sorted : int array;  (** loaded keys, ascending *)
  ops : int array;
      (** the trace: [-1] inserts a fresh key, otherwise
          [(index lsl 7) lor n] scans [n] items from loaded key [index] *)
  mutable pos : int;
  mutable next_fresh : int;  (** index of the next inserted key *)
  mutable sent_inserts : int list;  (** keys of every insert sent *)
  mutable acked : (int * int) list;  (** acknowledged inserts: key, value *)
}

(* Number of keys >= [k] the store holds, capped at [n], when the inserts
   sent so far are [inserted]. Requests on this one connection are applied
   in send order by the single server worker, so a scan sees exactly the
   inserts sent before it: not those sent while it was in flight. *)
let count_ge st ~inserted k n =
  let lo = ref 0 and hi = ref (Array.length st.sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if st.sorted.(mid) < k then lo := mid + 1 else hi := mid
  done;
  let loaded = Array.length st.sorted - !lo in
  if loaded >= n then n
  else
    min n
      (List.fold_left (fun a x -> if x >= k then a + 1 else a) loaded inserted)

let scan_ok st ~inserted k n items =
  let rec asc prev = function
    | [] -> true
    | (bk, _) :: tl ->
        let x = Kc.to_int bk in
        x > prev && asc x tl
  in
  asc (k - 1) items && List.length items = count_ge st ~inserted k n

type e_res = {
  e_done : int;
  e_bad : int;
  e_end : int;
  scans : Win.t;
  inserts : Win.t;
}

(* Closed loop with [window] requests in flight on one connection. A
   latency runs from [send] to the reply, so it includes the time a
   request queues behind the window. Every 16th request is traced. *)
let e_client st cl ~seed ~seconds ~max_ops ~traced =
  let kind = Array.make window 0 and key = Array.make window 0 in
  let value = Array.make window 0 and tsend = Array.make window 0 in
  let seqs = Array.make window 0 and inserted = Array.make window [] in
  let head = ref 0 and inflight = ref 0 and sent = ref 0 in
  let finished = ref 0 and bad = ref 0 in
  let t0 = now () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let scans = Win.create ~t0 ~deadline and inserts = Win.create ~t0 ~deadline in
  let b = if traced then Some (Span.mine ()) else None in
  let send () =
    let code = st.ops.(st.pos) in
    st.pos <- (if st.pos + 1 = Array.length st.ops then 0 else st.pos + 1);
    let slot = (!head + !inflight) mod window in
    if code < 0 then begin
      let idx = st.next_fresh in
      st.next_fresh <- idx + 1;
      let k = key_of ~seed idx in
      st.sent_inserts <- k :: st.sent_inserts;
      kind.(slot) <- -1;
      key.(slot) <- k;
      value.(slot) <- idx + 1;
      Bw_client.send cl (Wire.Put (Wire.Insert, Kc.of_int k, idx + 1))
    end
    else begin
      let k = st.keys.(code lsr 7) and n = code land 127 in
      kind.(slot) <- n;
      key.(slot) <- k;
      inserted.(slot) <- st.sent_inserts;
      Bw_client.send cl (Wire.Scan (Kc.of_int k, n))
    end;
    seqs.(slot) <- !sent;
    tsend.(slot) <- now ();
    incr sent;
    incr inflight
  in
  let recv () =
    let r = Bw_client.recv cl in
    let t1 = now () in
    let slot = !head in
    head := (!head + 1) mod window;
    decr inflight;
    incr finished;
    let dt = t1 - tsend.(slot) in
    (if kind.(slot) < 0 then begin
       Win.add inserts ~t1 ~dt ~ops:1;
       match r with
       | Wire.Applied true -> st.acked <- (key.(slot), value.(slot)) :: st.acked
       | _ -> incr bad
     end
     else begin
       Win.add scans ~t1 ~dt ~ops:1;
       match r with
       | Wire.Scanned items ->
           if not (scan_ok st ~inserted:inserted.(slot) key.(slot) kind.(slot) items)
           then incr bad
       | _ -> incr bad
     end);
    match b with
    | Some b when seqs.(slot) land 15 = 0 ->
        Span.add b Span.client_req ~req:seqs.(slot) ~t0:tsend.(slot) ~t1
    | _ -> ()
  in
  let t = ref t0 in
  while !t < deadline && !sent < max_ops do
    while !inflight < window && !sent < max_ops do
      send ()
    done;
    Bw_client.flush cl;
    recv ();
    t := now ()
  done;
  while !inflight > 0 do
    recv ()
  done;
  { e_done = !finished; e_bad = !bad; e_end = now (); scans; inserts }

(* Server-side wrappers of the traced run. [on] is set only while the
   traced phase runs, with no request in flight, so the server's request
   count matches the client's send count and both sides sample the same
   requests for spans. While [on], every call is also timed into [dur]
   and [cnt] (by span name), so the per-layer times are means over the
   same requests as the server's and the client's. Only the one server
   worker domain writes the probe; it is read after the server stops. *)
type e_probe = {
  on : bool Atomic.t;
  seq : int Atomic.t;
  dur : int array;
  cnt : int array;
  mutable words : int;  (** minor words the server worker allocated in the backend *)
}

let account p nm t0 =
  if Atomic.get p.on then begin
    p.dur.(nm) <- p.dur.(nm) + (now () - t0);
    p.cnt.(nm) <- p.cnt.(nm) + 1
  end

let traced_backend p (bk : Bw_server.Backend.t) : Bw_server.Backend.t =
  let start () =
    let b = Span.mine () in
    if Atomic.get p.on then begin
      let i = Atomic.fetch_and_add p.seq 1 in
      (b, if i land 15 = 0 then Span.root b Span.backend ~req:i else -1)
    end
    else (b, -1)
  in
  let finish b s t0 w0 =
    account p Span.backend t0;
    if Atomic.get p.on then
      p.words <- p.words + int_of_float (Gc.minor_words () -. w0);
    Span.leave b s
  in
  {
    bk with
    insert =
      (fun ~tid k v ->
        let b, s = start () in
        let w0 = Gc.minor_words () and t0 = now () in
        let r = bk.insert ~tid k v in
        finish b s t0 w0;
        r);
    scan =
      (fun ~tid k ~n visit ->
        let b, s = start () in
        let w0 = Gc.minor_words () and t0 = now () in
        let r = bk.scan ~tid k ~n visit in
        finish b s t0 w0;
        r);
  }

let traced_layer p ~ins ~scn (d : int driver) : int driver =
  {
    d with
    insert =
      (fun ~tid k v ->
        let b = Span.mine () in
        let s = Span.child b ins in
        let t0 = now () in
        let r = d.insert ~tid k v in
        account p ins t0;
        Span.leave b s;
        r);
    scan =
      (fun ~tid k ~n visit ->
        let b = Span.mine () in
        let s = Span.child b scn in
        let t0 = now () in
        let r = d.scan ~tid k ~n visit in
        account p scn t0;
        Span.leave b s;
        r);
  }

(* The planted fault: acknowledge the third insert without applying it. *)
let drop_one_insert (d : int driver) : int driver =
  let seen = ref 0 in
  {
    d with
    insert =
      (fun ~tid k v ->
        incr seen;
        !seen = 3 || d.insert ~tid k v);
  }

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun a f -> a + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0

let run_e o =
  let nkeys = if o.small then 5_000 else 100_000 in
  let data = Filename.concat o.dir "data" in
  let keys = Array.init nkeys (key_of ~seed:o.seed) in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let ops =
    let rng = Bw_util.Rng.create ~seed:(Int64.of_int ((o.seed * 31) + 5)) in
    let idx = zipf_indexes ~seed:o.seed ~tid:0 ~n:nkeys ~len:200_000 in
    Array.map
      (fun i ->
        if Bw_util.Rng.next_int rng 100 < 5 then -1
        else (i lsl 7) lor (1 + Bw_util.Rng.next_int rng 95))
      idx
  in
  let nspans = Array.length Span.names in
  let probe =
    {
      on = Atomic.make false;
      seq = Atomic.make 0;
      dur = Array.make nspans 0;
      cnt = Array.make nspans 0;
      words = 0;
    }
  in
  let make ~traced () =
    Pagestore.Store.rm_rf data;
    let regs = registries ~traced 1 in
    let obs = sink_of regs 0 in
    let store, _ = Store.open_dir ~obs ~fsync:true ~dir:data () in
    let tree_d = Drivers.bw_int_driver_of_tree (Store.tree store) in
    let tree_d =
      if traced then traced_layer probe ~ins:Span.tree_insert ~scn:Span.tree_scan tree_d
      else tree_d
    in
    let dur = Store.wrap_driver store tree_d in
    let dur = if o.fault = "drop-insert" then drop_one_insert dur else dur in
    let dur =
      if traced then traced_layer probe ~ins:Span.wal_insert ~scn:Span.wal_scan dur
      else dur
    in
    load_batched dur ~nd:1 keys;
    ignore (Store.checkpoint store : int * int);
    let backend = Bw_server.Backend.of_int_driver dur in
    let backend = if traced then traced_backend probe backend else backend in
    let srv =
      Server.start ~config:{ Server.default_config with workers = 1; obs } backend
    in
    let cl = Bw_client.connect ~port:(Server.port srv) () in
    { store; srv; cl; regs }
  in
  let stop i =
    Bw_client.close i.cl;
    Server.stop i.srv
  in
  let st =
    { keys; sorted; ops; pos = 0; next_fresh = nkeys; sent_inserts = []; acked = [] }
  in
  let attempted = ref 0 and failed = ref 0 in
  (* [mark] runs between the warm-up and the measured section *)
  let phase i ~seconds ~traced mark =
    Gc.compact ();
    if warm_seconds o > 0. then begin
      let r =
        e_client st i.cl ~seed:o.seed ~seconds:(warm_seconds o) ~max_ops:max_int
          ~traced:false
      in
      attempted := !attempted + r.e_done;
      failed := !failed + r.e_bad
    end;
    let m = mark () in
    if traced then begin
      Atomic.set probe.seq 0;
      Atomic.set probe.on true
    end;
    let r = e_client st i.cl ~seed:o.seed ~seconds ~max_ops:(max_ops o) ~traced in
    Atomic.set probe.on false;
    attempted := !attempted + r.e_done;
    failed := !failed + r.e_bad;
    let both = Win.merge [| r.scans; r.inserts |] in
    (m, r, Win.throughput both ~t_end:r.e_end)
  in
  (* Stop the server, close the store without a checkpoint, recover the
     data dir by WAL replay and look up every acknowledged insert. *)
  let finish i =
    stop i;
    let live = nkeys + List.length st.acked in
    let disk = ratio (dir_bytes data) (live * 16) in
    let heap = heap_bytes_per_key [| Store.tree i.store |] ~live in
    Store.close i.store;
    let store, _ = Store.open_dir ~dir:data () in
    let tree = Store.tree store in
    let lost =
      List.fold_left
        (fun a (k, v) -> if Bw.lookup tree k = [ v ] then a else a + 1)
        0 st.acked
    in
    Store.close store;
    Pagestore.Store.rm_rf data;
    failed := !failed + lost;
    (disk, heap, lost)
  in
  let lost_line lost =
    Printf.sprintf "%-36s %14d of %d acknowledged inserts (after WAL replay)"
      "lost_acked_writes" lost (List.length st.acked)
  in
  if not o.trace then begin
    let discard i =
      stop i;
      Store.close i.store
    in
    let inst, setup = setups ~reps:setup_reps (make ~traced:false) discard in
    let (), r, tput = phase inst ~seconds:o.seconds ~traced:false ignore in
    let disk, heap, lost = finish inst in
    untraced_outcome ~w:r.scans ~tput
      ~lat_lines:(win_lines "scan" r.scans @ win_lines "insert" r.inserts)
      ~setup ~heap ~attempted:!attempted ~failed:!failed
      ~extra:
        [
          lost_line lost;
          Printf.sprintf "%-36s %14.4f ratio" "disk_bytes_per_user_byte" disk;
        ]
  end
  else begin
    let plain = make ~traced:false () in
    let (), _, tput_plain = phase plain ~seconds:(o.seconds /. 2.) ~traced:false ignore in
    ignore (finish plain : float * float * int);
    st.acked <- [];
    st.sent_inserts <- [];
    st.next_fresh <- nkeys;
    let inst = make ~traced:true () in
    let tree = Store.tree inst.store in
    let reg = inst.regs.(0) in
    let snap () =
      (snap_counts [| tree |] [ reg ], (Bw_obs.snapshot reg).Bw_obs.sn_histos)
    in
    let (before, hs0), r, tput = phase inst ~seconds:(o.seconds /. 2.) ~traced:true snap in
    let after, hs1 = snap () in
    let tbl = Hashtbl.create 32 in
    let set k v = Hashtbl.replace tbl k v in
    let scans = Win.total r.scans and inserts = Win.total r.inserts in
    let reqs = probe.cnt.(Span.backend) in
    tree_layers tbl before after ~ops:reqs ~writes:inserts.Lat.n
      ~inserts:inserts.Lat.n;
    set "bwtree.alloc_words_per_op" (ratio probe.words reqs);
    structure_layers tbl [| tree |] ~live:(nkeys + List.length st.acked);
    let commits = obs_delta before after Bw_obs.C_wal_appends in
    set "pagestore.fsyncs_per_commit"
      (ratio (obs_delta before after Bw_obs.C_wal_fsyncs) commits);
    set "pagestore.wal_bytes_per_write"
      (ratio (obs_delta before after Bw_obs.C_wal_bytes) inserts.Lat.n);
    set "bw_server.bytes_out_per_op"
      (ratio (obs_delta before after Bw_obs.C_net_bytes_out) r.e_done);
    (* server-side request time: Bw_obs req_scan + req_put over the phase *)
    let sum_count hs =
      List.fold_left
        (fun (s, c) h ->
          match h.Bw_obs.hs_series with
          | Bw_obs.Lat_req_scan | Bw_obs.Lat_req_put -> (s + h.hs_sum, c + h.hs_count)
          | _ -> (s, c))
        (0, 0) hs
    in
    let s1, c1 = sum_count hs1 and s0, c0 = sum_count hs0 in
    let req_ns = ratio (s1 - s0) (c1 - c0) in
    let client_ns = ratio (scans.sum + inserts.sum) (scans.n + inserts.n) in
    let d n = probe.dur.(n) in
    let mean n = ratio (d n) probe.cnt.(n) in
    let per_req x = ratio x reqs in
    set "bwtree.scan_us" (us (mean Span.tree_scan));
    set "pagestore.wal_self_us_per_commit"
      (us (ratio (d Span.wal_insert - d Span.tree_insert) probe.cnt.(Span.wal_insert)));
    set "bw_server.backend_self_us_per_req"
      (us (per_req (d Span.backend - d Span.wal_scan - d Span.wal_insert)));
    set "bw_server.req_us" (us req_ns);
    set "bw_client.wait_us_per_req" (us (client_ns -. req_ns));
    set "bw_client.insert_p50_us" (us (Win.quantile r.inserts 0.5));
    set "bw_client.insert_p99_us" (us (Win.quantile r.inserts 0.99));
    set "tracing_overhead" (tput /. tput_plain);
    let disk, _, lost = finish inst in
    set "pagestore.disk_bytes_per_user_byte" disk;
    let spans = Span.collect ~cross:(Span.client_req, Span.backend) () in
    let _, bad = Span.analyse spans in
    (* The client-observed mean request time, split into the self time of
       each layer over the same requests: tree, WAL wrapper (commit and
       fsync), backend key codec, server loop (Bw_obs request time minus
       the backend) and the client-side wait (loopback, decode, window
       queueing). The parts add up to the client mean by construction;
       the check is that none is negative by more than the coarsest
       clock involved, i.e. that each layer's time contains its
       children's. *)
    let parts =
      [
        ("bwtree (scan+insert)", per_req (d Span.tree_scan + d Span.tree_insert));
        ( "pagestore wal wrapper",
          per_req (d Span.wal_scan + d Span.wal_insert - d Span.tree_scan - d Span.tree_insert) );
        ("bw_server backend codec", per_req (d Span.backend - d Span.wal_scan - d Span.wal_insert));
        ("bw_server loop (req - backend)", req_ns -. mean Span.backend);
        ("bw_client wait", client_ns -. req_ns);
      ]
    in
    (* Bw_obs times requests with gettimeofday: 1 us resolution *)
    let resolution_ns = 1000. in
    let negative = List.filter (fun (_, v) -> v < -.resolution_ns) parts in
    let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. parts in
    Span.write (Filename.concat o.dir "spans-ycsb-e-served.tsv") spans;
    traced_outcome tbl ~spans ~bad
      ~extra:
        ((lost_line lost :: "accounting of the client-observed mean request time:"
          :: List.map (fun (n, v) -> Printf.sprintf "  %-34s %12.3f us" n (us v)) parts)
        @ [
            Printf.sprintf "  %-34s %12.3f us (client mean %.3f us over %d requests)"
              "sum" (us total) (us client_ns) (scans.n + inserts.n);
            Printf.sprintf "  %d parts below -%.0f ns" (List.length negative) resolution_ns;
            (* the durability tax of one acknowledged insert *)
            Printf.sprintf "per insert: tree %.3f us, WAL commit and fsync %.3f us"
              (us (mean Span.tree_insert))
              (us (ratio (d Span.wal_insert - d Span.tree_insert) probe.cnt.(Span.wal_insert)));
          ])
      ~attempted:!attempted
      ~failed:(!failed + List.length negative)
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* all digits; a non-finite value (a benchmark bug) prints as null *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let small = ref false and fault = ref "" and dir = ref ".perfbench_run" in
  let usage =
    "perfbench.exe --workload (" ^ String.concat "|" workloads
    ^ ") --seed N --seconds S --trace 0|1 [--small] [--fault drop-insert] [--dir D]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced per-layer run");
      ("--small", Arg.Set small, " a few thousand ops (self-test scale)");
      ("--fault", Arg.Set_string fault, " plant a fault: drop-insert");
      ("--dir", Arg.Set_string dir, " scratch directory (default .perfbench_run)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let bad m =
    prerr_endline ("perfbench: " ^ m);
    prerr_endline usage;
    exit 2
  in
  if not (List.mem !workload workloads) then bad "unknown or missing --workload";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if !seconds <= 0. then bad "--seconds must be positive";
  if !seed < 0 then bad "--seed must be non-negative";
  if !fault <> "" && !fault <> "drop-insert" then bad "unknown --fault";
  Pagestore.Store.mkdir_p !dir;
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      small = !small;
      fault = !fault;
      dir = !dir;
    }
  in
  Printf.printf "# %s seed %d, %g s, trace %s\n%!" o.workload o.seed o.seconds
    (if o.trace then "on" else "off");
  let r =
    match o.workload with
    | "ycsb-c-point" -> run_c o
    | "ycsb-a-batch" -> run_a o
    | _ -> run_e o
  in
  List.iter print_endline r.report;
  let correct = r.failed = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (json_number m.value) m.unit_)
          r.metrics));
  exit (if correct then 0 else 1)
