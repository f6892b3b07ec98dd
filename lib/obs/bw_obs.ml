(* Per-domain-striped metrics registry. Layout notes:

   - Histograms, counters and event rings live in per-stripe rows that
     only the owning tid writes, so enabled-path probes cost a few plain
     stores and no interlocked instructions. Separate blocks are no
     guarantee against false sharing: the allocator may place two
     stripes' rows side by side, on one cache line. So each histogram
     (scalars and buckets) and each counter row is one block with a line
     of never-written padding ([Bw_util.Padded.line_words] words) at each
     end. Event rings are left unpadded: events are structural, not
     per-op.
   - Gauges are pull-only: emitters register a closure, the snapshot
     calls it. Nothing on an operation path ever publishes a gauge.
   - Emitters with no worker identity (the epoch background domain, a
     mapping-table chunk fault on whatever thread touched the id first)
     go through one shared stripe behind a mutex; such events are rare
     by construction (structural, not per-op).
   - Snapshot reads racily and merges. A probe concurrent with a
     snapshot may be missed or half-counted (count without sum); that is
     acceptable for telemetry and keeps the hot path wait-free. *)

type series =
  | Lat_insert
  | Lat_delete
  | Lat_update
  | Lat_lookup
  | Lat_scan
  | Lat_consolidate
  | Lat_reclaim
  | Lat_req_get
  | Lat_req_put
  | Lat_req_delete
  | Lat_req_scan
  | Lat_req_batch
  | Lat_req_stats
  | Val_op_restarts
  | Val_chain_depth
  | Val_reclaim_batch
  | Val_batch_size

let series_index = function
  | Lat_insert -> 0
  | Lat_delete -> 1
  | Lat_update -> 2
  | Lat_lookup -> 3
  | Lat_scan -> 4
  | Lat_consolidate -> 5
  | Lat_reclaim -> 6
  | Lat_req_get -> 7
  | Lat_req_put -> 8
  | Lat_req_delete -> 9
  | Lat_req_scan -> 10
  | Lat_req_batch -> 11
  | Lat_req_stats -> 12
  | Val_op_restarts -> 13
  | Val_chain_depth -> 14
  | Val_reclaim_batch -> 15
  | Val_batch_size -> 16

let all_series =
  [
    Lat_insert;
    Lat_delete;
    Lat_update;
    Lat_lookup;
    Lat_scan;
    Lat_consolidate;
    Lat_reclaim;
    Lat_req_get;
    Lat_req_put;
    Lat_req_delete;
    Lat_req_scan;
    Lat_req_batch;
    Lat_req_stats;
    Val_op_restarts;
    Val_chain_depth;
    Val_reclaim_batch;
    Val_batch_size;
  ]

let n_series = List.length all_series

let series_name = function
  | Lat_insert -> "insert"
  | Lat_delete -> "delete"
  | Lat_update -> "update"
  | Lat_lookup -> "lookup"
  | Lat_scan -> "scan"
  | Lat_consolidate -> "consolidate"
  | Lat_reclaim -> "reclaim_batch"
  | Lat_req_get -> "req_get"
  | Lat_req_put -> "req_put"
  | Lat_req_delete -> "req_delete"
  | Lat_req_scan -> "req_scan"
  | Lat_req_batch -> "req_batch"
  | Lat_req_stats -> "req_stats"
  | Val_op_restarts -> "op_restarts"
  | Val_chain_depth -> "chain_depth"
  | Val_reclaim_batch -> "reclaim_batch_size"
  | Val_batch_size -> "batch_size"

let series_unit = function
  | Lat_insert | Lat_delete | Lat_update | Lat_lookup | Lat_scan
  | Lat_consolidate | Lat_reclaim | Lat_req_get | Lat_req_put
  | Lat_req_delete | Lat_req_scan | Lat_req_batch | Lat_req_stats ->
      "ns"
  | Val_op_restarts | Val_chain_depth | Val_reclaim_batch | Val_batch_size ->
      "count"

type counter =
  | C_splits
  | C_merges
  | C_consolidations
  | C_root_collapses
  | C_reclaim_batches
  | C_mt_growths
  | C_net_bytes_in
  | C_net_bytes_out
  | C_net_requests
  | C_net_errors
  | C_batch_redescents
  | C_wal_appends
  | C_wal_fsyncs
  | C_wal_bytes
  | C_recovered_pages
  | C_recovered_wal_records
  | C_leaf_gap_reuses
  | C_leaf_probe_cmps
  | C_read_consolidations
  | C_ptr_derefs
  | C_key_compares
  | C_allocations
  | C_cas_attempts
  | C_cas_failures
  | C_restarts
  | C_node_visits
  | C_epoch_enters
  | C_inserts
  | C_deletes
  | C_updates
  | C_lookups
  | C_delta_cas_failures
  | C_smo_helps
  | C_prealloc_overflows

let counter_index = function
  | C_splits -> 0
  | C_merges -> 1
  | C_consolidations -> 2
  | C_root_collapses -> 3
  | C_reclaim_batches -> 4
  | C_mt_growths -> 5
  | C_net_bytes_in -> 6
  | C_net_bytes_out -> 7
  | C_net_requests -> 8
  | C_net_errors -> 9
  | C_batch_redescents -> 10
  | C_wal_appends -> 11
  | C_wal_fsyncs -> 12
  | C_wal_bytes -> 13
  | C_recovered_pages -> 14
  | C_recovered_wal_records -> 15
  | C_leaf_gap_reuses -> 16
  | C_leaf_probe_cmps -> 17
  | C_read_consolidations -> 18
  | C_ptr_derefs -> 19
  | C_key_compares -> 20
  | C_allocations -> 21
  | C_cas_attempts -> 22
  | C_cas_failures -> 23
  | C_restarts -> 24
  | C_node_visits -> 25
  | C_epoch_enters -> 26
  | C_inserts -> 27
  | C_deletes -> 28
  | C_updates -> 29
  | C_lookups -> 30
  | C_delta_cas_failures -> 31
  | C_smo_helps -> 32
  | C_prealloc_overflows -> 33

let all_counters =
  [
    C_splits;
    C_merges;
    C_consolidations;
    C_root_collapses;
    C_reclaim_batches;
    C_mt_growths;
    C_net_bytes_in;
    C_net_bytes_out;
    C_net_requests;
    C_net_errors;
    C_batch_redescents;
    C_wal_appends;
    C_wal_fsyncs;
    C_wal_bytes;
    C_recovered_pages;
    C_recovered_wal_records;
    C_leaf_gap_reuses;
    C_leaf_probe_cmps;
    C_read_consolidations;
    C_ptr_derefs;
    C_key_compares;
    C_allocations;
    C_cas_attempts;
    C_cas_failures;
    C_restarts;
    C_node_visits;
    C_epoch_enters;
    C_inserts;
    C_deletes;
    C_updates;
    C_lookups;
    C_delta_cas_failures;
    C_smo_helps;
    C_prealloc_overflows;
  ]

let n_counters = List.length all_counters

let counter_name = function
  | C_splits -> "splits"
  | C_merges -> "merges"
  | C_consolidations -> "consolidations"
  | C_root_collapses -> "root_collapses"
  | C_reclaim_batches -> "reclaim_batches"
  | C_mt_growths -> "mt_growths"
  | C_net_bytes_in -> "net_bytes_in"
  | C_net_bytes_out -> "net_bytes_out"
  | C_net_requests -> "net_requests"
  | C_net_errors -> "net_errors"
  | C_batch_redescents -> "batch_redescents"
  | C_wal_appends -> "wal_appends"
  | C_wal_fsyncs -> "wal_fsyncs"
  | C_wal_bytes -> "wal_bytes"
  | C_recovered_pages -> "recovered_pages"
  | C_recovered_wal_records -> "recovered_wal_records"
  | C_leaf_gap_reuses -> "leaf_gap_reuses"
  | C_leaf_probe_cmps -> "leaf_probe_cmps"
  | C_read_consolidations -> "read_consolidations"
  | C_ptr_derefs -> "ptr_derefs"
  | C_key_compares -> "key_compares"
  | C_allocations -> "allocations"
  | C_cas_attempts -> "cas_attempts"
  | C_cas_failures -> "cas_failures"
  | C_restarts -> "restarts"
  | C_node_visits -> "node_visits"
  | C_epoch_enters -> "epoch_enters"
  | C_inserts -> "inserts"
  | C_deletes -> "deletes"
  | C_updates -> "updates"
  | C_lookups -> "lookups"
  | C_delta_cas_failures -> "delta_cas_failures"
  | C_smo_helps -> "smo_helps"
  | C_prealloc_overflows -> "prealloc_overflows"

type gauge =
  | G_epoch_pending
  | G_epoch_watermark_lag
  | G_mt_free_ids
  | G_mt_chunks
  | G_net_active_conns
  | G_net_queued_bytes

let gauge_name = function
  | G_epoch_pending -> "epoch_pending"
  | G_epoch_watermark_lag -> "epoch_watermark_lag"
  | G_mt_free_ids -> "mt_free_ids"
  | G_mt_chunks -> "mt_chunks"
  | G_net_active_conns -> "net_active_conns"
  | G_net_queued_bytes -> "net_queued_bytes"

type event_kind =
  | Ev_split
  | Ev_merge
  | Ev_consolidate
  | Ev_mt_grow
  | Ev_reclaim
  | Ev_root_collapse

let event_kind_name = function
  | Ev_split -> "split"
  | Ev_merge -> "merge"
  | Ev_consolidate -> "consolidate"
  | Ev_mt_grow -> "mt_grow"
  | Ev_reclaim -> "reclaim"
  | Ev_root_collapse -> "root_collapse"

let all_kinds =
  [ Ev_split; Ev_merge; Ev_consolidate; Ev_mt_grow; Ev_reclaim;
    Ev_root_collapse ]

let n_kinds = List.length all_kinds

let kind_index = function
  | Ev_split -> 0
  | Ev_merge -> 1
  | Ev_consolidate -> 2
  | Ev_mt_grow -> 3
  | Ev_reclaim -> 4
  | Ev_root_collapse -> 5

type event = {
  ev_ns : int;
  ev_tid : int;
  ev_kind : event_kind;
  ev_a : int;
  ev_b : int;
}

(* ------------------------------------------------------------------ *)
(* Log-bucketed histogram                                              *)
(* ------------------------------------------------------------------ *)

module Histo = struct
  (* Bucketing: values in [0, 16) map to their own bucket; above that,
     the top bit picks an octave and the next [sub_bits] bits pick a
     sub-bucket, giving a relative bucket width of 2^-sub_bits. The
     layout is value-only (no per-histogram parameters), so any two
     histograms merge by bucket-wise addition. *)

  let sub_bits = 3
  let n_sub = 1 lsl sub_bits (* 8 *)
  let linear_limit = 2 * n_sub (* exact buckets below this *)

  (* 61 is the top set bit of max_int (= 2^62 - 1) on 64-bit OCaml, so
     the last octave's buckets end exactly at max_int *)
  let n_buckets = ((61 - sub_bits + 1) * n_sub) + n_sub

  let msb v =
    let r = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then begin
      r := !r + 32;
      v := !v lsr 32
    end;
    if !v lsr 16 <> 0 then begin
      r := !r + 16;
      v := !v lsr 16
    end;
    if !v lsr 8 <> 0 then begin
      r := !r + 8;
      v := !v lsr 8
    end;
    if !v lsr 4 <> 0 then begin
      r := !r + 4;
      v := !v lsr 4
    end;
    if !v lsr 2 <> 0 then begin
      r := !r + 2;
      v := !v lsr 2
    end;
    if !v lsr 1 <> 0 then r := !r + 1;
    !r

  let bucket_of_value v =
    let v = if v < 0 then 0 else v in
    if v < linear_limit then v
    else
      let m = msb v in
      let shift = m - sub_bits in
      let sub = (v lsr shift) land (n_sub - 1) in
      ((m - sub_bits + 1) * n_sub) + sub

  let bucket_lo b =
    if b < linear_limit then b
    else
      let octave = b / n_sub in
      let sub = b mod n_sub in
      let shift = octave - 1 in
      (n_sub lor sub) lsl shift

  let bucket_hi b =
    if b < linear_limit then b
    else
      let shift = (b / n_sub) - 1 in
      bucket_lo b + (1 lsl shift) - 1

  (* One block per histogram: a line of padding, count, sum, min, max,
     the buckets, a line of padding. *)
  type h = int array

  let pad = Bw_util.Padded.line_words
  let i_count = pad
  let i_sum = pad + 1
  let i_min = pad + 2
  let i_max = pad + 3
  let i_bucket b = pad + 4 + b

  let create () =
    let h = Array.make (i_bucket n_buckets + pad) 0 in
    h.(i_min) <- max_int;
    h

  let add h v =
    let v = if v < 0 then 0 else v in
    let b = i_bucket (bucket_of_value v) in
    h.(b) <- h.(b) + 1;
    h.(i_count) <- h.(i_count) + 1;
    h.(i_sum) <- h.(i_sum) + v;
    if v < h.(i_min) then h.(i_min) <- v;
    if v > h.(i_max) then h.(i_max) <- v

  let merge_into ~dst src =
    for i = i_count to i_sum do
      dst.(i) <- dst.(i) + src.(i)
    done;
    if src.(i_min) < dst.(i_min) then dst.(i_min) <- src.(i_min);
    if src.(i_max) > dst.(i_max) then dst.(i_max) <- src.(i_max);
    for b = i_bucket 0 to i_bucket (n_buckets - 1) do
      dst.(b) <- dst.(b) + src.(b)
    done

  let count h = h.(i_count)
  let sum h = h.(i_sum)
  let bucket h b = h.(i_bucket b)

  let buckets h =
    let out = ref [] in
    for b = n_buckets - 1 downto 0 do
      let n = bucket h b in
      if n > 0 then out := (bucket_lo b, bucket_hi b, n) :: !out
    done;
    !out

  let min_value h = if count h = 0 then 0 else h.(i_min)
  let max_value h = h.(i_max)

  let quantile h q =
    if count h = 0 then 0
    else begin
      let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
      (* nearest rank: the smallest bucket whose cumulative count covers
         ceil(q * count), at least 1 *)
      let rank =
        let r = int_of_float (ceil (q *. float_of_int (count h))) in
        if r < 1 then 1 else r
      in
      let acc = ref 0 and b = ref 0 and found = ref (n_buckets - 1) in
      (try
         while !b < n_buckets do
           acc := !acc + bucket h !b;
           if !acc >= rank then begin
             found := !b;
             raise Exit
           end;
           b := !b + 1
         done
       with Exit -> ());
      (* the covering bucket's upper bound can overshoot the largest
         recorded value (e.g. a single sample); never report a quantile
         above the exact max *)
      min (bucket_hi !found) (max_value h)
    end
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type ring = {
  slots : event array;
  mutable writes : int; (* total appends; slot = writes mod capacity *)
  kind_counts : int array;
      (* all-time emissions per kind; survives ring overflow *)
}

type stripe = {
  histos : Histo.h array; (* one per series *)
  counters : int array; (* padded at both ends: see [counter_slot] *)
  ring : ring;
}

type t = {
  stripes : stripe array; (* last one is the shared/anon stripe *)
  anon_lock : Mutex.t;
  ring_capacity : int;
  t0_ns : int;
  mutable gauges : (gauge * (unit -> int)) list;
  gauge_lock : Mutex.t;
}

type sink = Null | To of t

(* CLOCK_MONOTONIC: nanosecond resolution, never steps backwards, and
   allocation-free (an unboxed noalloc stub). Spans and event stamps are
   differences, so no consumer needs wall-clock time. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A counter's word in a stripe's counter row, past the leading line of
   padding. *)
let counter_slot c = Bw_util.Padded.line_words + counter_index c

let dummy_event =
  { ev_ns = 0; ev_tid = 0; ev_kind = Ev_split; ev_a = 0; ev_b = 0 }

let make_stripe ring_capacity =
  {
    histos = Array.init n_series (fun _ -> Histo.create ());
    counters = Array.make (n_counters + (2 * Bw_util.Padded.line_words)) 0;
    ring =
      {
        slots = Array.make ring_capacity dummy_event;
        writes = 0;
        kind_counts = Array.make n_kinds 0;
      };
  }

let create ?(stripes = 65) ?(ring_capacity = 256) () =
  if stripes < 1 then invalid_arg "Bw_obs.create: stripes < 1";
  if ring_capacity < 1 then invalid_arg "Bw_obs.create: ring_capacity < 1";
  {
    stripes = Array.init (stripes + 1) (fun _ -> make_stripe ring_capacity);
    anon_lock = Mutex.create ();
    ring_capacity;
    t0_ns = now_ns ();
    gauges = [];
    gauge_lock = Mutex.create ();
  }

let sink t = To t
let enabled = function Null -> false | To _ -> true

let stripe_of r tid =
  let n = Array.length r.stripes - 1 (* private stripes *) in
  if tid >= 0 && tid < n then r.stripes.(tid) else r.stripes.(n)

let observe s ~tid series v =
  match s with
  | Null -> ()
  | To r -> Histo.add (stripe_of r tid).histos.(series_index series) v

let add s ~tid c n =
  match s with
  | Null -> ()
  | To r ->
      let row = (stripe_of r tid).counters in
      let i = counter_slot c in
      row.(i) <- row.(i) + n

let incr s ~tid c = add s ~tid c 1

let count r c =
  let i = counter_slot c in
  Array.fold_left (fun acc st -> acc + st.counters.(i)) 0 r.stripes

let push_ring r ring kind ~tid ~a ~b =
  let slot = ring.writes mod Array.length ring.slots in
  ring.slots.(slot) <-
    { ev_ns = now_ns () - r.t0_ns; ev_tid = tid; ev_kind = kind; ev_a = a; ev_b = b };
  ring.writes <- ring.writes + 1;
  let k = kind_index kind in
  ring.kind_counts.(k) <- ring.kind_counts.(k) + 1

let event s ~tid kind ~a ~b =
  match s with
  | Null -> ()
  | To r -> push_ring r (stripe_of r tid).ring kind ~tid ~a ~b

let anon_stripe r = r.stripes.(Array.length r.stripes - 1)

let incr_anon s c =
  match s with
  | Null -> ()
  | To r ->
      Mutex.lock r.anon_lock;
      let row = (anon_stripe r).counters in
      let i = counter_slot c in
      row.(i) <- row.(i) + 1;
      Mutex.unlock r.anon_lock

let event_anon s kind ~a ~b =
  match s with
  | Null -> ()
  | To r ->
      Mutex.lock r.anon_lock;
      push_ring r (anon_stripe r).ring kind ~tid:(-1) ~a ~b;
      Mutex.unlock r.anon_lock

let register_gauge s g provider =
  match s with
  | Null -> ()
  | To r ->
      Mutex.lock r.gauge_lock;
      r.gauges <- (g, provider) :: List.remove_assoc g r.gauges;
      Mutex.unlock r.gauge_lock

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type histo_summary = {
  hs_series : series;
  hs_count : int;
  hs_sum : int;
  hs_min : int;
  hs_max : int;
  hs_p50 : int;
  hs_p90 : int;
  hs_p99 : int;
}

type snapshot = {
  sn_elapsed_s : float;
  sn_histos : histo_summary list;
  sn_counters : (counter * int) list;
  sn_gauges : (gauge * int) list;
  sn_events : event list;
  sn_event_totals : (event_kind * int) list;
  sn_dropped_events : int;
}

(* One snapshot over any number of registries, as if all their stripes
   belonged to one: histograms and counters merge exactly (bucket layout
   is global), gauges registered in several registries sum, and event
   logs interleave by timestamp. [snapshot r] is the single-registry
   case; the shard router snapshots one registry per shard plus the
   serving layer's and merges them into forest-wide totals. *)
let snapshot_all rs =
  if rs = [] then invalid_arg "Bw_obs.snapshot_all: no registries";
  let iter_stripes f = List.iter (fun r -> Array.iter f r.stripes) rs in
  let merged = Array.init n_series (fun _ -> Histo.create ()) in
  iter_stripes (fun st ->
      Array.iteri (fun i h -> Histo.merge_into ~dst:merged.(i) h) st.histos);
  let histos =
    List.filter_map
      (fun s ->
        let h = merged.(series_index s) in
        if Histo.count h = 0 then None
        else
          Some
            {
              hs_series = s;
              hs_count = Histo.count h;
              hs_sum = Histo.sum h;
              hs_min = Histo.min_value h;
              hs_max = Histo.max_value h;
              hs_p50 = Histo.quantile h 0.50;
              hs_p90 = Histo.quantile h 0.90;
              hs_p99 = Histo.quantile h 0.99;
            })
      all_series
  in
  let counters =
    List.map
      (fun c ->
        let i = counter_slot c in
        let total = ref 0 in
        iter_stripes (fun st -> total := !total + st.counters.(i));
        (c, !total))
      all_counters
  in
  let gauges =
    let sampled =
      List.concat_map
        (fun r ->
          Mutex.lock r.gauge_lock;
          let gs = r.gauges in
          Mutex.unlock r.gauge_lock;
          List.rev_map (fun (g, f) -> (g, try f () with _ -> 0)) gs)
        rs
    in
    (* a gauge registered in several registries reports the sum *)
    List.fold_left
      (fun acc (g, v) ->
        if List.mem_assoc g acc then
          List.map (fun (g', v') -> if g' = g then (g', v' + v) else (g', v')) acc
        else acc @ [ (g, v) ])
      [] sampled
  in
  let events = ref [] and dropped = ref 0 in
  iter_stripes (fun st ->
      let ring = st.ring in
      let cap = Array.length ring.slots in
      let w = ring.writes in
      dropped := !dropped + max 0 (w - cap);
      let live = min w cap in
      (* prepend newest..oldest so each stripe's slice ends up in ring
         order; the clock ticks in µs, so a stable sort is what keeps
         same-timestamp bursts in emission order *)
      for i = live - 1 downto 0 do
        events := ring.slots.((w - live + i) mod cap) :: !events
      done);
  let events =
    List.stable_sort (fun a b -> compare a.ev_ns b.ev_ns) !events
  in
  let event_totals =
    List.map
      (fun k ->
        let i = kind_index k in
        let total = ref 0 in
        iter_stripes (fun st -> total := !total + st.ring.kind_counts.(i));
        (k, !total))
      all_kinds
  in
  let elapsed =
    List.fold_left
      (fun acc r -> Float.max acc (float_of_int (now_ns () - r.t0_ns) /. 1e9))
      0.0 rs
  in
  {
    sn_elapsed_s = elapsed;
    sn_histos = histos;
    sn_counters = counters;
    sn_gauges = gauges;
    sn_events = events;
    sn_event_totals = event_totals;
    sn_dropped_events = !dropped;
  }

let snapshot r = snapshot_all [ r ]

let pp_snapshot ppf sn =
  let open Format in
  fprintf ppf "@[<v>== metrics snapshot (%.2fs) ==" sn.sn_elapsed_s;
  if sn.sn_histos <> [] then begin
    fprintf ppf "@,histograms:";
    List.iter
      (fun h ->
        fprintf ppf
          "@,  %-18s %-5s count=%-8d p50=%-10d p90=%-10d p99=%-10d max=%-10d \
           mean=%.1f"
          (series_name h.hs_series)
          (series_unit h.hs_series)
          h.hs_count h.hs_p50 h.hs_p90 h.hs_p99 h.hs_max
          (float_of_int h.hs_sum /. float_of_int (max 1 h.hs_count)))
      sn.sn_histos
  end;
  fprintf ppf "@,counters:";
  List.iter
    (fun (c, v) -> fprintf ppf "@,  %-18s %d" (counter_name c) v)
    sn.sn_counters;
  if sn.sn_gauges <> [] then begin
    fprintf ppf "@,gauges:";
    List.iter
      (fun (g, v) -> fprintf ppf "@,  %-18s %d" (gauge_name g) v)
      sn.sn_gauges
  end;
  fprintf ppf "@,events: %d kept, %d dropped |"
    (List.length sn.sn_events)
    sn.sn_dropped_events;
  List.iter
    (fun (k, n) ->
      if n > 0 then fprintf ppf " %s=%d" (event_kind_name k) n)
    sn.sn_event_totals;
  List.iter
    (fun e ->
      fprintf ppf "@,  [%12dns] tid %2d %-13s a=%d b=%d" e.ev_ns e.ev_tid
        (event_kind_name e.ev_kind)
        e.ev_a e.ev_b)
    sn.sn_events;
  fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type v =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let to_string v =
    let buf = Buffer.create 1024 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f ->
          if Float.is_integer f && Float.abs f < 1e15 then
            Buffer.add_string buf (Printf.sprintf "%.1f" f)
          else Buffer.add_string buf (Printf.sprintf "%.17g" f)
      | Str s ->
          Buffer.add_char buf '"';
          escape buf s;
          Buffer.add_char buf '"'
      | Arr xs ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            xs;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_char buf '"';
              escape buf k;
              Buffer.add_string buf "\":";
              go x)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Parse_error of int * string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (!pos, msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = pos := !pos + 1 in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* encode as UTF-8 (surrogate pairs are not recombined;
                 snapshot output never emits them) *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf
                  (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | _ -> fail "unknown escape");
          go ()
        end
        else if Char.code c < 0x20 then fail "control character in string"
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      let digits () =
        let seen = ref false in
        let rec go () =
          match peek () with
          | Some ('0' .. '9') ->
              seen := true;
              advance ();
              go ()
          | _ -> ()
        in
        go ();
        if not !seen then fail "expected digit"
      in
      digits ();
      if peek () = Some '.' then begin
        is_float := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
          is_float := true;
          advance ();
          (match peek () with
          | Some ('+' | '-') -> advance ()
          | _ -> ());
          digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if !is_float then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected , or } in object"
            in
            Obj (fields [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elems acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elems (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected , or ] in array"
            in
            Arr (elems [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error (off, msg) ->
        Error (Printf.sprintf "offset %d: %s" off msg)

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let histo_json ?prefix h =
  let open Json in
  let name =
    match prefix with
    | None -> series_name h.hs_series
    | Some p -> p ^ "_" ^ series_name h.hs_series
  in
  Obj
    [
      ("name", Str name);
      ("unit", Str (series_unit h.hs_series));
      ("count", Int h.hs_count);
      ("sum", Int h.hs_sum);
      ("min", Int h.hs_min);
      ("max", Int h.hs_max);
      ("p50", Int h.hs_p50);
      ("p90", Int h.hs_p90);
      ("p99", Int h.hs_p99);
    ]

let snapshot_json sn =
  let open Json in
  let histo h = histo_json h in
  let event e =
    Obj
      [
        ("ns", Int e.ev_ns);
        ("tid", Int e.ev_tid);
        ("kind", Str (event_kind_name e.ev_kind));
        ("a", Int e.ev_a);
        ("b", Int e.ev_b);
      ]
  in
  let kind_totals =
    List.filter_map
      (fun (k, n) ->
        if n = 0 then None else Some (event_kind_name k, Int n))
      sn.sn_event_totals
  in
  Obj
    [
      ("elapsed_s", Float sn.sn_elapsed_s);
      ("histograms", Arr (List.map histo sn.sn_histos));
      ( "counters",
        Obj
          (List.map (fun (c, v) -> (counter_name c, Int v)) sn.sn_counters) );
      ( "gauges",
        Obj (List.map (fun (g, v) -> (gauge_name g, Int v)) sn.sn_gauges) );
      ( "events",
        Obj
          [
            ("dropped", Int sn.sn_dropped_events);
            ("kinds", Obj kind_totals);
            ("log", Arr (List.map event sn.sn_events));
          ] );
    ]

let snapshot_to_string sn = Json.to_string (snapshot_json sn)

(* The merged snapshot's JSON with every labeled shard's non-empty
   series appended under "<label>_<name>" keys. The unprefixed entries
   stay exact forest-wide totals, so consumers of the single-tree schema
   (json_check, dashboards) keep working; the prefixed ones expose the
   per-shard breakdown. Zero shard counters are elided — the merged
   object already lists every counter. *)
let sharded_snapshot_json ~shards merged =
  let open Json in
  let pfx lbl s = lbl ^ "_" ^ s in
  let extra_histos =
    List.concat_map
      (fun (lbl, sn) -> List.map (fun h -> histo_json ~prefix:lbl h) sn.sn_histos)
      shards
  in
  let extra_counters =
    List.concat_map
      (fun (lbl, sn) ->
        List.filter_map
          (fun (c, v) ->
            if v = 0 then None else Some (pfx lbl (counter_name c), Int v))
          sn.sn_counters)
      shards
  in
  let extra_gauges =
    List.concat_map
      (fun (lbl, sn) ->
        List.map (fun (g, v) -> (pfx lbl (gauge_name g), Int v)) sn.sn_gauges)
      shards
  in
  match snapshot_json merged with
  | Obj fields ->
      Obj
        (List.map
           (function
             | "histograms", Arr hs -> ("histograms", Arr (hs @ extra_histos))
             | "counters", Obj cs -> ("counters", Obj (cs @ extra_counters))
             | "gauges", Obj gs -> ("gauges", Obj (gs @ extra_gauges))
             | kv -> kv)
           fields)
  | v -> v

let sharded_snapshot_to_string ~shards merged =
  Json.to_string (sharded_snapshot_json ~shards merged)
