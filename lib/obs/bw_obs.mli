(** Low-overhead observability registry: latency/value histograms,
    software counters, pull-style gauges and a bounded structural-event
    trace, striped per domain so hot paths never write shared cache lines.

    It is the one counting system in a process. The Table 3 events
    (pointer derefs, key compares, allocations, CaS attempts and
    failures, restarts, node visits, epoch enters) are counters of the
    registry an index was created with, so each index instance counts
    into its own registry; so are the Bw-Tree's operation counters,
    which [Bwtree.S.op_stats] and [Bwtree.S.leaf_cache_stats] read back.

    Every probe takes a {!sink}. With {!Null} (the default everywhere) a
    probe is a single branch and touches nothing; with [To registry] it
    writes only the caller's stripe. Merging across stripes happens at
    {!snapshot} time, never on the hot path.

    The registry is deliberately index-agnostic: the Bw-Tree core, the
    epoch manager and the mapping table all publish into the same set of
    series, so one snapshot describes a whole tree instance. *)

(** {1 Series, counters, gauges, events} *)

(** Log-bucketed histogram series. [Lat_*] record nanosecond spans;
    [Val_*] record dimensionless magnitudes (per-op restart counts,
    delta-chain depths, reclaim batch sizes). *)
type series =
  | Lat_insert
  | Lat_delete
  | Lat_update
  | Lat_lookup
  | Lat_scan
  | Lat_consolidate  (** duration of one successful consolidation *)
  | Lat_reclaim  (** duration of one garbage-collection batch *)
  | Lat_req_get  (** server-side wire request latency, per opcode *)
  | Lat_req_put
  | Lat_req_delete
  | Lat_req_scan
  | Lat_req_batch
  | Lat_req_stats
  | Lat_req_repl  (** replication frames (SUBSCRIBE/SNAPSHOT/WALCHUNK/PROMOTE) *)
  | Val_op_restarts  (** root-restarts taken by one point operation *)
  | Val_chain_depth  (** delta-chain depth met by a lookup *)
  | Val_reclaim_batch  (** objects freed by one collection batch *)
  | Val_batch_size  (** operations in one [execute_batch] call *)

val series_name : series -> string
val series_unit : series -> string
(** ["ns"] for [Lat_*], ["count"] for [Val_*]. *)

(** Monotonic software-event counters. *)
type counter =
  | C_splits
  | C_merges
  | C_consolidations
  | C_root_collapses
  | C_reclaim_batches
  | C_mt_growths  (** mapping-table chunks faulted in *)
  | C_net_bytes_in  (** wire bytes read off client sockets *)
  | C_net_bytes_out  (** wire bytes written to client sockets *)
  | C_net_requests  (** wire requests decoded (BATCH counts as one) *)
  | C_net_errors  (** ERR replies sent (malformed frames, bad ops) *)
  | C_batch_redescents  (** batch ops that could not reuse the cached leaf *)
  | C_wal_appends  (** WAL commit records written (one per group commit) *)
  | C_wal_fsyncs  (** fsyncs issued by WAL group commits *)
  | C_wal_bytes  (** payload bytes appended to the WAL *)
  | C_recovered_pages  (** checkpoint pages loaded during recovery *)
  | C_recovered_wal_records  (** WAL records replayed during recovery *)
  | C_leaf_gap_reuses
      (** never incremented: leaf pages keep no encoded key copy whose
          space a consolidation could reuse; kept only because the
          benchmark still reads it *)
  | C_leaf_probe_cmps
      (** key comparisons charged to in-leaf base searches (also counted
          in [C_key_compares]) *)
  | C_repl_records_shipped  (** WAL commit records pushed to a standby *)
  | C_repl_bytes_shipped  (** WAL payload bytes pushed to a standby *)
  | C_repl_records_applied  (** WAL commit records applied by a follower *)
  | C_repl_bytes_applied  (** WAL payload bytes applied by a follower *)
  | C_repl_ops_applied  (** individual ops applied from the stream *)
  | C_repl_snapshot_pages  (** bootstrap checkpoint pages loaded by a follower *)
  | C_repl_promotions  (** follower promotions to read-write *)
  | C_router_redirects  (** router ops answered EWRONGSHARD and retried *)
  | C_wrongshard_replies  (** ownership-gate rejections served by this node *)
  | C_migrations  (** online range migrations completed by this node *)
  | C_mig_items_copied  (** items batch-extracted to a migration destination *)
  | C_mig_ops_replayed  (** capture-WAL ops drained to a migration destination *)
  | C_ckpt_gc_runs  (** incremental checkpoints escalated to full for pages-log GC *)
  | C_ckpt_gc_bytes  (** pages-log bytes reclaimed by those escalations *)
  | C_leaf_cache_hits  (** point ops served off a verified leaf-cache entry *)
  | C_leaf_cache_misses  (** point ops that fell back to the full descent *)
  | C_leaf_cache_invalidations  (** cache entries dropped (stale or evicted) *)
  | C_leaf_cache_stale_verifies  (** cached entries that failed re-validation *)
  | C_read_consolidations
      (** leaf consolidations performed by point reads (also counted in
          [C_consolidations]) *)
  (* The paper's Table 3 events, the software stand-in for its hardware
     counters; every index of the §6 lineup counts these. *)
  | C_ptr_derefs  (** pointers chased: chain hops, table lookups, children *)
  | C_key_compares
  | C_allocations  (** index nodes, delta records or towers allocated *)
  | C_cas_attempts
  | C_cas_failures
  | C_restarts  (** operation attempts aborted and retried from the root *)
  | C_node_visits  (** logical (or trie) nodes examined by a descent *)
  | C_epoch_enters  (** epoch protection acquired *)
  (* Bw-Tree operation counters, read back by [Bwtree.S.op_stats]. *)
  | C_inserts
  | C_deletes
  | C_updates
  | C_lookups
  | C_delta_cas_failures
      (** failed CaS installs of a delta record (also counted in
          [C_cas_failures]) *)
  | C_smo_helps  (** help-along completions attempted *)
  | C_prealloc_overflows  (** consolidations forced by slot exhaustion *)

val counter_name : counter -> string

(** Instantaneous values, sampled at {!snapshot} time from registered
    provider callbacks (no hot-path writes). *)
type gauge =
  | G_epoch_pending  (** retired objects not yet reclaimed *)
  | G_epoch_watermark_lag  (** global epoch minus the slowest reader's *)
  | G_mt_free_ids  (** mapping-table free-list length *)
  | G_mt_chunks  (** mapping-table chunks faulted in *)
  | G_net_active_conns  (** open client connections across all workers *)
  | G_net_queued_bytes  (** response bytes buffered awaiting socket writes *)
  | G_repl_lag_records  (** WAL commit records the standby is behind *)
  | G_repl_lag_bytes  (** WAL payload bytes the standby is behind *)
  | G_cluster_epoch  (** this node's current partition-table epoch *)
  | G_leaf_cache_fill  (** leaf-cache slot occupancy, per mille (0–1000) *)

val gauge_name : gauge -> string

type event_kind =
  | Ev_split
  | Ev_merge
  | Ev_consolidate
  | Ev_mt_grow
  | Ev_reclaim
  | Ev_root_collapse

val event_kind_name : event_kind -> string

(** One structural event. [ev_ns] is nanoseconds since the registry was
    created; [ev_tid] is the emitting worker, or [-1] for contexts with
    no thread identity (background collectors, chunk faults). [ev_a] and
    [ev_b] are kind-specific operands (node ids, batch sizes, …). *)
type event = {
  ev_ns : int;
  ev_tid : int;
  ev_kind : event_kind;
  ev_a : int;
  ev_b : int;
}

(** {1 Registry and sink} *)

type t

(** What probes write into: nothing, or a registry. Keeping the disabled
    case a constructor (rather than an option inside the registry) makes
    the off path a single pattern-match branch. *)
type sink = Null | To of t

val create : ?stripes:int -> ?ring_capacity:int -> unit -> t
(** [stripes] bounds the [tid]s that get private rows (default 65 —
    {!Bwtree.default_config}[.max_threads] workers plus one checker).
    Larger tids share the last stripe; with distinct tids below
    [stripes], rows are owner-written and probes never contend.
    [ring_capacity] (default 256) bounds each stripe's event ring;
    overflow drops the oldest events and is reported in the snapshot. *)

val sink : t -> sink

val enabled : sink -> bool
val now_ns : unit -> int
(** CLOCK_MONOTONIC in nanoseconds: an arbitrary origin, so only
    differences mean anything. Probe sites measure spans as
    [now_ns () - t0]; call it only after checking {!enabled}. *)

(** {1 Probes (hot path)} *)

val observe : sink -> tid:int -> series -> int -> unit
(** Add one value (span or magnitude) to a series. Negative values are
    clamped to 0. *)

val incr : sink -> tid:int -> counter -> unit

val count : t -> counter -> int
(** One counter summed over the registry's stripes, without building a
    {!snapshot}. Racy like a snapshot while workers run. *)

val add : sink -> tid:int -> counter -> int -> unit
(** Bump a counter by an arbitrary amount (bytes-in/out accounting). *)

val event : sink -> tid:int -> event_kind -> a:int -> b:int -> unit

val incr_anon : sink -> counter -> unit
(** Like {!incr}/{!event} for emitters with no worker identity (epoch
    background domain, mapping-table chunk faults): serialized through a
    shared stripe, so they must stay off per-operation paths. *)

val event_anon : sink -> event_kind -> a:int -> b:int -> unit

val register_gauge : sink -> gauge -> (unit -> int) -> unit
(** The provider is called at {!snapshot} time. Re-registering a gauge
    replaces the previous provider. *)

(** {1 Histograms (exposed for tests and external consumers)} *)

module Histo : sig
  (** Log-bucketed integer histogram: exact below 16, then 8 sub-buckets
      per power of two (relative bucket width <= 12.5%). Mergeable:
      bucket layout is global, so cross-domain merge is vector add. *)

  type h

  val n_buckets : int
  val bucket_of_value : int -> int
  val bucket_lo : int -> int
  (** Smallest value mapping to the bucket. *)

  val bucket_hi : int -> int
  (** Largest value mapping to the bucket. *)

  val create : unit -> h
  val add : h -> int -> unit
  val merge_into : dst:h -> h -> unit
  val count : h -> int
  val sum : h -> int
  val buckets : h -> (int * int * int) list
  (** The non-empty buckets as [(lo, hi, count)], ascending. *)

  val min_value : h -> int
  (** Exact smallest recorded value; 0 when empty. *)

  val max_value : h -> int
  (** Exact largest recorded value; 0 when empty. *)

  val quantile : h -> float -> int
  (** Nearest-rank quantile, reported as the upper bound of the bucket
      holding that rank (so [quantile h 1.0 >= max_value h]); 0 when
      empty. [q] is clamped to [0, 1]. *)
end

(** {1 Snapshot and export} *)

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
  sn_elapsed_s : float;  (** registry age when the snapshot was taken *)
  sn_histos : histo_summary list;  (** non-empty series only *)
  sn_counters : (counter * int) list;  (** every counter, zeros included *)
  sn_gauges : (gauge * int) list;  (** registered gauges only *)
  sn_events : event list;  (** surviving events, oldest first *)
  sn_event_totals : (event_kind * int) list;
      (** all-time emissions per kind (every kind, zeros included) —
          unlike [sn_events], unaffected by ring overflow *)
  sn_dropped_events : int;  (** ring overflow across all stripes *)
}

val snapshot : t -> snapshot
(** Merges all stripes. Safe to call while workers are running: rows are
    read racily, so in-flight probes may or may not be included, but
    every quiesced probe is. *)

val snapshot_all : t list -> snapshot
(** One snapshot over several registries, as if all their stripes
    belonged to one: histograms and counters merge exactly, a gauge
    registered in several registries reports the sum, event logs
    interleave by timestamp and [sn_elapsed_s] is the oldest registry's
    age. [snapshot r = snapshot_all [r]]. The shard router uses this to
    report forest-wide totals over per-shard registries. Raises
    [Invalid_argument] on the empty list. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

(** {1 JSON} *)

(** A minimal self-contained JSON tree, serializer and parser — enough
    to emit snapshots and to let tests and CI validate the emitted files
    without external tooling. *)
module Json : sig
  type v =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  val to_string : v -> string
  val parse : string -> (v, string) result
  (** Strict RFC-8259-style parser (objects, arrays, strings with
      escapes, numbers, literals); [Error] carries an offset-tagged
      message. *)

  val member : string -> v -> v option
  (** Field lookup on [Obj]; [None] otherwise. *)
end

val snapshot_json : snapshot -> Json.v
val snapshot_to_string : snapshot -> string
(** [snapshot_json] rendered compactly. Schema: object with
    [elapsed_s], [histograms] (array of objects with [name], [unit],
    [count], [sum], [min], [max], [p50], [p90], [p99]), [counters]
    (object), [gauges] (object), and [events] (object with [dropped],
    [kinds] — all-time per-kind totals, overflow-proof — and [log], an
    array of [{ns; tid; kind; a; b}]). *)

val sharded_snapshot_json :
  shards:(string * snapshot) list -> snapshot -> Json.v

val sharded_snapshot_to_string :
  shards:(string * snapshot) list -> snapshot -> string
(** [sharded_snapshot_json ~shards merged] is [snapshot_json merged] —
    typically a {!snapshot_all} over per-shard registries, so the
    unprefixed entries are exact forest-wide totals — with each labeled
    shard's non-empty histograms, non-zero counters and gauges appended
    under ["<label>_<name>"] keys. The single-tree schema stays valid;
    the prefixed series add the per-shard breakdown. *)
