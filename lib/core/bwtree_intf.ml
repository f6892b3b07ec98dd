(** Interface types for the Bw-Tree functor. *)

module type KEY = sig
  type t

  val compare : t -> t -> int

  val lower_bound_in : t array -> t -> lo:int -> hi:int -> int
  (** [lower_bound_in a k ~lo ~hi]: the first index in [\[lo, hi)] of
      the sorted [a] whose key is [>= k], or [hi]. A binary search of at
      most [floor(log2 (hi - lo)) + 1] comparisons. It is the key type's
      own search kernel, so the comparison can be inlined rather than
      called through {!compare}: the tree's node and page searches run
      on it. *)

  val upper_bound_in : t array -> t -> lo:int -> hi:int -> int
  (** As {!lower_bound_in}, for the first key [> k]. *)

  val to_binary : t -> string
  (** Binary-comparable encoding. The Bw-Tree itself never uses it; it is
      part of the key contract so that the same key modules drive the trie
      indexes and the workload generators. *)

  val of_binary : string -> t
  (** Inverse of {!to_binary} on its exact output. The trie indexes store
      only the binary form and use this to hand real keys back to scan
      visitors. *)

  val dummy : t
  (** Any value of the type; fills unused slots of the lock-based indexes'
      fixed-capacity node arrays. Never compared or returned. *)

  val pp : Format.formatter -> t -> unit
end

module type VALUE = sig
  type t

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** Every optimization the paper evaluates is an independent switch, so the
    same code base serves as the optimized OpenBw-Tree, the good-faith
    baseline Bw-Tree, and each ablation in between. *)
type config = {
  leaf_max : int;  (** max key-value items in a logical leaf (paper: 128) *)
  inner_max : int;  (** max separator items in a logical inner node (64) *)
  leaf_chain_max : int;  (** leaf Delta Chain consolidation threshold (24) *)
  inner_chain_max : int;  (** inner Delta Chain threshold (2) *)
  leaf_min : int;  (** leaf underflow (merge) threshold *)
  inner_min : int;  (** inner underflow threshold *)
  unique_keys : bool;
      (** enforce unique keys; [false] enables the §3.1 non-unique support *)
  preallocate : bool;
      (** §4.1 delta-record pre-allocation: a leaf's data deltas live in
          one chunk (a slab of [leaf_chain_max + 1] slots, allocated on
          the base's first append and dropped when it is consolidated),
          claimed by one fetch-and-add each and walked as index steps
          through its arrays; running out of slots forces consolidation.
          Inner nodes keep only the allocation marker. [false] makes every
          delta its own heap block (the Fig. 8 baseline) *)
  fast_consolidation : bool;  (** §4.3 segment-based consolidation *)
  search_shortcuts : bool;  (** §4.4 offset-guided micro-indexing *)
  use_atomic_cas : bool;
      (** [false] replaces mapping-table CaS with plain load/compare/store
          (§6.3 "disable CaS"); single-threaded use only *)
  inplace_leaf_update : bool;
      (** [true] rewrites leaf bases copy-on-write instead of appending
          deltas (§6.3 "disable delta updates"); single-threaded only *)
  gc_scheme : Epoch.scheme;  (** §4.2; paper default for OpenBw is
      decentralized, for baseline Bw-Tree centralized *)
  gc_threshold : int;  (** local garbage list trigger (1024) *)
  max_threads : int;
  read_consolidation : bool;
      (** point reads consolidate the leaves whose chains they walk: each
          thread counts the delta records its reads traverse, and once the
          count reaches [leaf_max] the read rebuilds the leaf it is on, so
          rebuild work stays bounded by the chain walking it replaces;
          scans publish the merge they already pay for each chained leaf
          they visit. [false] leaves consolidation to writers (the
          paper's design, with its private-copy iterator, and the
          Fig. 18 row that measures chain cost) *)
}

let default_config =
  {
    leaf_max = 128;
    inner_max = 64;
    leaf_chain_max = 24;
    inner_chain_max = 2;
    leaf_min = 16;
    inner_min = 8;
    unique_keys = true;
    preallocate = true;
    fast_consolidation = true;
    search_shortcuts = true;
    use_atomic_cas = true;
    inplace_leaf_update = false;
    gc_scheme = Epoch.Decentralized;
    gc_threshold = 1024;
    max_threads = 64;
    read_consolidation = true;
  }

(** A good-faith reading of Microsoft's original design [29]: heap-allocated
    delta records, sort-based consolidation, no search shortcuts,
    centralized epoch GC, chain threshold 8 everywhere. *)
let microsoft_config =
  {
    default_config with
    leaf_chain_max = 8;
    inner_chain_max = 8;
    preallocate = false;
    fast_consolidation = false;
    search_shortcuts = false;
    gc_scheme = Epoch.Centralized;
    read_consolidation = false;
  }

(** Validating configuration builder. [S.create] re-validates whatever it
    is given, so a raw [{ default_config with ... }] update still works —
    it just has to denote a coherent configuration. *)
module Config = struct
  let validate c =
    let fail fmt = Format.kasprintf invalid_arg ("Bwtree.Config: " ^^ fmt) in
    if c.leaf_max < 2 then fail "leaf_max %d < 2" c.leaf_max;
    if c.inner_max < 2 then fail "inner_max %d < 2" c.inner_max;
    if c.leaf_min < 0 then fail "leaf_min %d < 0" c.leaf_min;
    if c.inner_min < 0 then fail "inner_min %d < 0" c.inner_min;
    if c.leaf_min >= c.leaf_max then
      fail "leaf_min %d >= leaf_max %d (a leaf would merge and re-split \
            forever)"
        c.leaf_min c.leaf_max;
    if c.inner_min >= c.inner_max then
      fail "inner_min %d >= inner_max %d" c.inner_min c.inner_max;
    if c.leaf_chain_max < 1 then
      fail "leaf_chain_max %d < 1 (a chain threshold below 1 would \
            consolidate empty chains)"
        c.leaf_chain_max;
    if c.inner_chain_max < 1 then
      fail "inner_chain_max %d < 1" c.inner_chain_max;
    if c.gc_threshold < 1 then fail "gc_threshold %d < 1" c.gc_threshold;
    if c.max_threads < 1 then fail "max_threads %d < 1" c.max_threads

  let make ?(base = default_config) ?leaf_max ?inner_max ?leaf_chain_max
      ?inner_chain_max ?leaf_min ?inner_min ?unique_keys ?preallocate
      ?fast_consolidation ?search_shortcuts ?use_atomic_cas
      ?inplace_leaf_update ?gc_scheme ?gc_threshold
      ?max_threads ?read_consolidation () =
    let field v = function Some x -> x | None -> v in
    let c =
      {
        leaf_max = field base.leaf_max leaf_max;
        inner_max = field base.inner_max inner_max;
        leaf_chain_max = field base.leaf_chain_max leaf_chain_max;
        inner_chain_max = field base.inner_chain_max inner_chain_max;
        leaf_min = field base.leaf_min leaf_min;
        inner_min = field base.inner_min inner_min;
        unique_keys = field base.unique_keys unique_keys;
        preallocate = field base.preallocate preallocate;
        fast_consolidation = field base.fast_consolidation fast_consolidation;
        search_shortcuts = field base.search_shortcuts search_shortcuts;
        use_atomic_cas = field base.use_atomic_cas use_atomic_cas;
        inplace_leaf_update = field base.inplace_leaf_update inplace_leaf_update;
        gc_scheme = field base.gc_scheme gc_scheme;
        gc_threshold = field base.gc_threshold gc_threshold;
        max_threads = field base.max_threads max_threads;
        read_consolidation = field base.read_consolidation read_consolidation;
      }
    in
    validate c;
    c
end

(** Operation counters: the tree's {!Bw_obs} counters of the same names,
    summed over the registry's stripes (see [S.op_stats]). *)
type op_stats = {
  inserts : int;
  deletes : int;
  updates : int;
  lookups : int;
  splits : int;
  merges : int;
  consolidations : int;
  failed_cas : int;
      (** failed CaS installs of a delta record ([delta_cas_failures]) *)
  restarts : int;  (** operation attempts aborted and retried from the root *)
  smo_helps : int;  (** help-along completions attempted *)
  prealloc_overflows : int;  (** consolidations forced by slot exhaustion *)
  read_consolidations : int;
      (** consolidations performed by point reads (a subset of
          [consolidations]; see [config.read_consolidation]) *)
}

(** Mapping-table occupancy snapshot. *)
type mapping_stats = {
  allocated : int;  (** ids ever handed out (the high-water mark) *)
  freed : int;  (** recycled ids currently parked on the free list *)
  chunks : int;  (** chunks faulted in so far *)
  table_capacity : int;  (** addressable ids under the current geometry *)
}

let pp_mapping_stats ppf s =
  Format.fprintf ppf
    "@[<h>mapping table: %d ids allocated, %d free, %d chunks, capacity %d@]"
    s.allocated s.freed s.chunks s.table_capacity

(** Kept only because the benchmark still reads [lc_hits]: the tree has
    no leaf cache, so it is always 0 (see [S.leaf_cache_stats]). *)
type leaf_cache_stats = { lc_hits : int }

let mapping_stats_to_json s =
  Bw_obs.Json.Obj
    [
      ("allocated", Bw_obs.Json.Int s.allocated);
      ("freed", Bw_obs.Json.Int s.freed);
      ("chunks", Bw_obs.Json.Int s.chunks);
      ("capacity", Bw_obs.Json.Int s.table_capacity);
    ]

(** Snapshot of the physical structure, computed by a full walk
    (Table 2's IDCL/LDCL/INS/LNS/IPU/LPU statistics). *)
type structure_stats = {
  inner_nodes : int;
  leaf_nodes : int;
  avg_inner_chain : float;
  avg_leaf_chain : float;
  avg_inner_size : float;
  avg_leaf_size : float;
  inner_prealloc_util : float;  (** fraction of pre-allocated slots used *)
  leaf_prealloc_util : float;
      (** the same over the leaves that hold a delta slab (a leaf
          allocates one on its first data append after a consolidation) *)
  leaf_slots_wasted : int;
      (** slab slots claimed by an append whose CaS then failed, summed
          over the leaves' current slabs *)
  depth : int;  (** tree height: root to leaf, in logical nodes *)
}

(** Public interface of one Bw-Tree instantiation. *)
module type S = sig
  type key
  type value

  type t
  (** A concurrent ordered index from [key] to [value]. All operations are
      lock-free (writers append delta records published by CaS; readers
      never write shared memory except epoch bookkeeping) and may be called
      from any number of domains concurrently, provided each caller passes
      a distinct [tid] below [config.max_threads]. [tid] defaults to [0],
      fine for single-threaded use. *)

  val create : ?config:config -> ?obs:Bw_obs.sink -> unit -> t
  (** A fresh index. [config] defaults to {!default_config}, the fully
      optimized OpenBw-Tree; {!microsoft_config} selects the baseline
      Bw-Tree design. The config is validated ({!Config.validate});
      inconsistent settings raise [Invalid_argument]. [obs] (default
      {!Bw_obs.Null}) receives per-operation latencies, restart counts,
      chain depths, SMO events, the epoch/mapping-table gauges, the
      Table 3 event counters and the operation counters {!op_stats}
      reads; with the default null sink every probe is a single branch
      and nothing is counted. *)

  val config : t -> config
  val obs : t -> Bw_obs.sink

  (** {1 Point operations} *)

  val insert : t -> ?tid:int -> key -> value -> bool
  (** [false] if the key (or, with non-unique keys, the exact (key, value)
      pair) is already present. *)

  val delete : t -> ?tid:int -> key -> value -> bool
  (** Removes the key. With non-unique keys the exact (key, value) pair is
      removed — delete deltas carry the value precisely for this (§3.1).
      In unique mode the value argument is ignored. *)

  val update : t -> ?tid:int -> key -> value -> bool
  (** Replaces the current value (posting an update delta); [false] if the
      key is absent. *)

  val upsert : t -> ?tid:int -> key -> value -> unit
  val lookup : t -> ?tid:int -> key -> value list
  (** All visible values of the key — a singleton or empty list in unique
      mode, computed with the S{_present}/S{_deleted} walk (§3.1)
      otherwise. *)

  val find : t -> ?tid:int -> key -> value option
  (** A visible value of the key — its only one in unique mode, the
      head of {!lookup}'s list otherwise. The point read the harness
      drivers use: on a unique-key tree it allocates only its [Some] (no
      closures, no result list, no ancestor path). Counts as a lookup in
      {!op_stats} and the [lookup] latency series. *)

  val mem : t -> ?tid:int -> key -> bool

  (** {1 Batch execution}

      Amortizes per-operation overhead across a request batch: the ops
      are sorted by key (stable — ties keep submission order, so
      non-unique/overwrite semantics match sequential execution), the
      epoch is entered once, and the sorted run is walked left-to-right
      reusing the previous traversal while keys stay inside the cached
      leaf's separator range. Re-descent (from the nearest cached
      ancestor still covering the key, else the root) happens only on
      range exit, SMO encounter or CaS failure. *)

  type batch_op =
    | B_insert of value
    | B_update of value
    | B_upsert of value
    | B_delete of value
    | B_get

  type batch_result = R_applied of bool | R_values of value list

  val execute_batch :
    t -> ?tid:int -> (key * batch_op) array -> batch_result array
  (** Executes the ops and returns one result per op, in submission
      order: [R_applied] for writes (the same booleans the point ops
      return; [B_upsert] reports whether the update or the fallback
      insert took effect) and [R_values] for [B_get]. Equivalent to
      applying the ops sequentially in submission order. Per-[tid]
      scratch buffers are reused and the op loop builds no closures or
      tuples, so a steady-state fixed-size batch allocates little beyond
      the deltas it publishes, the result array and its results (plus
      the ancestor path of each re-descent). *)

  (** {1 Range operations (§3.2, Appendix C)} *)

  module Iterator : sig
    type iter
    (** A cursor over the index. Each iterator holds a consolidated page
        of one logical leaf node (with [read_consolidation], a chained
        leaf's page is published as its new base; otherwise it is a
        private copy); moving past its boundary
        re-traverses from the root with the node's high key (forward) or
        low key under the go-left rule (backward). Never blocks writers. *)

    val seek : t -> ?tid:int -> key -> iter
    (** Positioned at the first item whose key is >= the argument. *)

    val seek_first : t -> ?tid:int -> unit -> iter
    val current : iter -> (key * value) option
    (** [None] when positioned before the first or after the last item. *)

    val next : iter -> unit
    val prev : iter -> unit
    (** [next]/[prev] from an exhausted end re-enter the data, so a scan
        can reverse direction at any point. *)
  end

  val scan : t -> ?tid:int -> ?n:int -> key -> (key * value) list
  (** Up to [n] items starting at the first key >= the argument — the
      YCSB-E operation. *)

  val scan_iter : t -> ?tid:int -> ?n:int -> key -> (key -> value -> unit) -> int
  (** Visitor form of {!scan}: calls the function on up to [n] items in
      key order and returns the count, materializing nothing. The
      harness drivers use it so a range query allocates no result
      list. *)

  val scan_all : t -> ?tid:int -> unit -> (key * value) list
  val cardinal : t -> int

  (** {1 Maintenance} *)

  val consolidate_all : t -> unit
  (** Replaces every delta chain with a fresh base node (single-threaded
      utility; used by tests and the §6.3 "-DC" experiment). *)

  val gc_advance : t -> unit
  (** Advance the epoch clock once (cooperative alternative to the
      background thread). *)

  val start_gc_thread : t -> ?interval_s:float -> unit -> unit
  (** Start the epoch-advancing thread (default 40 ms, the paper's
      interval): a systhread of the calling domain, not a domain of its
      own ({!Epoch.start_background}). Call {!stop_gc_thread} before the
      calling domain returns: a domain cannot terminate while a thread it
      started still runs. *)

  val stop_gc_thread : t -> unit

  val quiesce : t -> tid:int -> unit
  (** Worker [tid] will issue no more operations for a while; its
      published epoch stops holding back reclamation. *)

  val epoch : t -> Epoch.t

  (** {1 Leaf pages} *)

  module Page : Leaf_page.S with type key := key and type value := value
  (** The one leaf-materialization representation: every consumer of
      leaf contents — descent, consolidation, iterators, freeze/inspect,
      checkpointing — goes through this API (DESIGN.md, "Leaf pages"). *)

  val iter_leaf_pages : t -> ?tid:int -> (Page.t -> unit) -> unit
  (** Visits every non-empty logical leaf as one consolidated page, in
      key order. Fully consolidated leaves are handed out zero-copy;
      leaves with pending deltas are materialized on the side (the tree
      is not modified). Quiescent callers only — this is the checkpoint
      writer's traversal, and {!Page.encode} gives each key its binary
      slice only then, so the live pages carry no serialized copy. *)

  (** {1 Introspection} *)

  val op_stats : t -> op_stats
  (** The operation counters of the tree's registry. Trees sharing one
      registry report their combined counts. Raises [Invalid_argument]
      on a tree created with the null sink, which counts nothing. *)

  val structure_stats : t -> structure_stats

  (** [iter_nodes t f] visits every logical node with its Delta-Chain
      length and item count — the raw data behind {!structure_stats}, for
      histograms. *)
  val iter_nodes : t -> (leaf:bool -> chain:int -> size:int -> unit) -> unit
  val memory_words : t -> int

  val cursor_block : t -> tid:int -> Obj.t
  (** Thread [tid]'s cursor, the per-thread record every point operation
      writes, as a raw block: for layout tests. *)

  val max_chains : t -> int * int
  (** (longest leaf Delta Chain, longest inner Delta Chain) right now — a
      cheap probe for harnesses that bound chain growth. Exact when the
      tree is quiescent; a racy snapshot otherwise. *)

  val mapping_table_stats : t -> mapping_stats

  val leaf_cache_stats : t -> leaf_cache_stats
  (** Always [{ lc_hits = 0 }]; kept only because the benchmark still
      reads it. *)

  val routing_check : t -> tid:int -> key -> bool
  (** Test oracle: [true] when the leaf the descent reaches for the key
      is the one found by routing each inner level through its
      consolidated separator view instead of its delta chain and
      separator array. Quiescent trees only. *)

  exception Invariant_violation of string

  val verify_invariants : t -> unit
  (** Full structural check (ordering, bounds, metas, sibling links,
      inner base separator arrays); quiescent callers only. Raises
      {!Invariant_violation}. *)

  val dump : t -> Format.formatter -> unit
  (** Renders every logical node with its delta chain, for debugging. *)

  (** {1 §6.3 decomposition hooks} *)

  type frozen

  val freeze : t -> frozen
  (** Consolidates everything and converts the tree to direct physical
      pointers — the "disable mapping table" configuration. The source
      tree must be quiescent. *)

  val frozen_lookup : frozen -> key -> value list
  (** Counts into the source tree's sink. *)
end
