(** Concrete driver instances: the six indexes of §6 (plus configuration
    variants of the Bw-Tree), their forests and durable stores, built
    once by {!Make} for any key type and instantiated over integer
    ({!Int}) and string (email) ({!Str}) keys. *)

open Index_iface

(** Everything that varies by key type beyond the tree's own
    {!Bwtree.KEY}. *)
module type KEYED = sig
  include Bwtree.KEY

  include Pagestore.Codec.CODEC with type t := t
  (** The checkpoint-page and WAL codec. *)

  val tag : string
  (** ["int"] or ["str"]: the [--key-type] name, and the key type a
      replication SUBSCRIBE names so a follower refuses a stream of the
      other type. *)

  val part : ?lo:t -> ?hi:t -> int -> Bw_shard.Part.t
  (** [part ?lo ?hi n] splits [[lo, hi]] into [n] shards. The default
      range is where keys of this type live: the non-negative ints
      (negative keys still route, to shard 0), or every string. *)

  val shard_of : Bw_shard.Part.t -> t -> int

  val route : ?name:string -> Bw_shard.Part.t -> t driver array -> t driver
  (** The forest driver over one driver per shard of the partition. *)

  val backend : t driver -> backend
  (** The serving view: keys travel in their binary-comparable encoding. *)

  val of_workload : Workload.key_space -> int -> t
  (** Workload index -> key, for the key spaces of this type. Raises
      [Invalid_argument] on a key space of the other type. *)

  val workload_range : t option * t option
  (** [(lo, hi)] bounds on the keys {!of_workload} generates, to
      partition a forest over them. *)
end

(* A durable driver plus its lifecycle: [dur_checkpoint] cuts a new
   generation (call it quiesced — drained server, phase barrier; [mode]
   selects full rotation vs an in-place incremental manifest),
   [dur_close] fsyncs and releases the WAL without checkpointing (a
   clean close still recovers through WAL replay), [dur_stats] reports
   what boot-time recovery found. [dur_sources] exposes one replication
   source per shard (index = shard number; a single store is one-shard)
   for the WAL shipper. *)
type 'k durable = {
  dur_driver : 'k driver;
  dur_checkpoint : ?tid:int -> ?mode:[ `Full | `Incremental ] -> unit -> unit;
  dur_close : unit -> unit;
  dur_stats : Pagestore.Store.recovery_stats;
  dur_sources : Pagestore.Store.repl_source array;
}

module type S = sig
  type key

  module K : KEYED with type t = key

  module Bw : Bwtree.S with type key = key and type value = int
  (** The Bw-Tree over these keys: the one tree module of this key type. *)

  module Durable : module type of Pagestore.Store.Make (K) (Bw)
  (** Its page store: checkpoint generations, WAL, recovery. *)

  val driver_of_tree : ?name:string -> Bw.t -> key driver
  (** The driver view of an existing tree instance. *)

  val bwtree :
    ?name:string -> ?config:Bwtree.config -> ?obs:Bw_obs.sink -> unit ->
    key driver

  val btree : ?obs:Bw_obs.sink -> unit -> key driver

  val skiplist :
    ?policy:Skiplist.tower_policy -> ?obs:Bw_obs.sink -> unit -> key driver

  val art : ?obs:Bw_obs.sink -> unit -> key driver
  val masstree : ?obs:Bw_obs.sink -> unit -> key driver

  val lineup : ?obs:Bw_obs.sink -> unit -> (string * (unit -> key driver)) list
  (** The six-index lineup of the §6 experiments, each index counting
      its Table 3 events into [obs] (default {!Bw_obs.Null}). *)

  val shard :
    ?lo:key -> ?hi:key -> shards:int -> (int -> key driver) -> key driver
  (** [shard ~shards mk] is [mk 0] itself when [shards = 1], and
      otherwise the forest routing over [mk i] for every shard [i] of
      [K.part ?lo ?hi shards]. *)

  val forest :
    ?config:Bwtree.config -> ?obs_of:(int -> Bw_obs.sink) -> ?lo:key ->
    ?hi:key -> shards:int -> unit -> key driver
  (** A single Bw-Tree for [shards = 1], a range-partitioned forest
      otherwise. [obs_of i] supplies shard [i]'s metrics sink, so a
      forest can feed per-shard registries (labeled shard<i>_* series in
      the merged snapshot) or one shared registry — striping is by tid
      either way. *)

  val durable :
    ?config:Bwtree.config -> ?obs_of:(int -> Bw_obs.sink) -> ?lo:key ->
    ?hi:key -> ?segment_bytes:int -> ?page_items:int -> ?fsync:bool ->
    ?on_replay:(int -> Durable.W.op -> unit) -> shards:int -> dir:string ->
    unit -> key durable
  (** Pagestore-backed recovery plus a group-commit WAL, as a single
      store in [dir] for [shards = 1] and otherwise as a forest whose
      shard [i] keeps its own generations and WAL in
      {!Pagestore.Store.shard_dir}, so group commits never serialize
      across shards and a crash tears each shard's WAL independently
      (recovery is then per-(thread, shard) prefix-consistent).
      [on_replay] receives the shard index so a checker can attribute
      replayed ops. *)
end

module Make (K : KEYED) = struct
  type key = K.t

  module K = K
  module Bw = Bwtree.Make (K) (Int_value)
  module Durable = Pagestore.Store.Make (K) (Bw)
  module Bt = Btree_olc.Make (K) (Int_value)
  module Sl = Skiplist.Make (K) (Int_value)
  module Ar = Art_olc.Make (K) (Int_value)
  module Mt = Masstree.Make (K) (Int_value)

  let hd_opt = function [] -> None | v :: _ -> Some v

  (* --- Bw-Tree drivers (OpenBw, baseline Bw, and arbitrary configs) --- *)

  (* Driver batch ops in tree terms, mirroring the per-op closures below
     (remove deletes with value 0, read reports the newest value). The
     conversion arrays are batch-sized, so they go through [Bw_util.Arr]
     to avoid a forced minor collection per batch. *)
  let bw_batch tree ?tid ops =
    let bops =
      Bw_util.Arr.map
        (function
          | Bop_insert (k, v) -> (k, Bw.B_insert v)
          | Bop_update (k, v) -> (k, Bw.B_update v)
          | Bop_upsert (k, v) -> (k, Bw.B_upsert v)
          | Bop_remove k -> (k, Bw.B_delete 0)
          | Bop_read k -> (k, Bw.B_get))
        ops
    in
    Bw_util.Arr.map
      (function
        | Bw.R_applied b -> Bres_applied b
        | Bw.R_values vs -> Bres_value (hd_opt vs))
      (Bw.execute_batch tree ?tid bops)

  (* The common core of the create-and-wrap constructor below, the
     durable (recovered-tree) constructor further down and the
     replication follower. *)
  let driver_of_tree ?(name = "OpenBw-Tree") tree : key driver =
    (* The tree's ops take an optional [?tid]: passing [~tid] would box a
       fresh [Some tid] on every call, so each closure passes the
       preallocated option for its tid. *)
    let some_tid = Array.init (Bw.config tree).max_threads Option.some in
    {
      name;
      insert = (fun ~tid k v -> Bw.insert tree ?tid:some_tid.(tid) k v);
      read = (fun ~tid k -> Bw.find tree ?tid:some_tid.(tid) k);
      update = (fun ~tid k v -> Bw.update tree ?tid:some_tid.(tid) k v);
      remove = (fun ~tid k -> Bw.delete tree ?tid:some_tid.(tid) k 0);
      scan =
        (fun ~tid k ~n visit ->
          Bw.scan_iter tree ?tid:some_tid.(tid) ~n k visit);
      batch = Some (fun ~tid ops -> bw_batch tree ?tid:some_tid.(tid) ops);
      start_aux = (fun () -> Bw.start_gc_thread tree ());
      stop_aux = (fun () -> Bw.stop_gc_thread tree);
      thread_done = (fun ~tid -> Bw.quiesce tree ~tid);
      memory_words = (fun () -> Bw.memory_words tree);
    }

  let bwtree ?name ?config ?obs () : key driver =
    driver_of_tree ?name (Bw.create ?config ?obs ())

  (* --- lock-based / lock-free comparators --- *)

  let btree ?obs () : key driver =
    let t = Bt.create ?obs () in
    {
      name = "B+Tree";
      insert = (fun ~tid k v -> Bt.insert t ~tid k v);
      read = (fun ~tid k -> Bt.lookup t ~tid k);
      update = (fun ~tid k v -> Bt.update t ~tid k v);
      remove = (fun ~tid k -> Bt.delete t ~tid k);
      scan = (fun ~tid k ~n visit -> Bt.scan t ~tid k ~n visit);
      batch = None;
      start_aux = ignore;
      stop_aux = ignore;
      thread_done = (fun ~tid -> ignore tid);
      memory_words = (fun () -> Bt.memory_words t);
    }

  let skiplist ?(policy = Skiplist.Background) ?obs () : key driver =
    let t = Sl.create ~policy ?obs () in
    {
      name =
        (match policy with
        | Skiplist.Background -> "SkipList"
        | Skiplist.Inline -> "SkipList-inline");
      insert = (fun ~tid k v -> Sl.insert t ~tid k v);
      read = (fun ~tid k -> Sl.lookup t ~tid k);
      update = (fun ~tid k v -> Sl.update t ~tid k v);
      remove = (fun ~tid k -> Sl.delete t ~tid k);
      scan = (fun ~tid k ~n visit -> Sl.scan t ~tid k ~n visit);
      batch = None;
      start_aux = (fun () -> Sl.start_aux t);
      stop_aux = (fun () -> Sl.stop_aux t);
      thread_done = (fun ~tid -> ignore tid);
      memory_words = (fun () -> Sl.memory_words t);
    }

  let art ?obs () : key driver =
    let t = Ar.create ?obs () in
    {
      name = "ART";
      insert = (fun ~tid k v -> Ar.insert t ~tid k v);
      read = (fun ~tid k -> Ar.lookup t ~tid k);
      update = (fun ~tid k v -> Ar.update t ~tid k v);
      remove = (fun ~tid k -> Ar.delete t ~tid k);
      scan = (fun ~tid k ~n visit -> Ar.scan t ~tid k ~n visit);
      batch = None;
      start_aux = ignore;
      stop_aux = ignore;
      thread_done = (fun ~tid -> ignore tid);
      memory_words = (fun () -> Ar.memory_words t);
    }

  let masstree ?obs () : key driver =
    let t = Mt.create ?obs () in
    {
      name = "Masstree";
      insert = (fun ~tid k v -> Mt.insert t ~tid k v);
      read = (fun ~tid k -> Mt.lookup t ~tid k);
      update = (fun ~tid k v -> Mt.update t ~tid k v);
      remove = (fun ~tid k -> Mt.delete t ~tid k);
      scan = (fun ~tid k ~n visit -> Mt.scan t ~tid k ~n visit);
      batch = None;
      start_aux = ignore;
      stop_aux = ignore;
      thread_done = (fun ~tid -> ignore tid);
      memory_words = (fun () -> Mt.memory_words t);
    }

  (* --- the six-index lineup used by §6 experiments --- *)

  let lineup ?obs () : (string * (unit -> key driver)) list =
    [
      ("Bw-Tree", fun () -> bwtree ~name:"Bw-Tree"
                      ~config:Bwtree.microsoft_config ?obs ());
      ("OpenBw-Tree", fun () -> bwtree ?obs ());
      ("SkipList", fun () -> skiplist ?obs ());
      ("Masstree", fun () -> masstree ?obs ());
      ("B+Tree", fun () -> btree ?obs ());
      ("ART", fun () -> art ?obs ());
    ]

  (* --- range-partitioned forests (lib/shard router) --- *)

  let shard ?lo ?hi ~shards mk : key driver =
    if shards = 1 then mk 0
    else K.route (K.part ?lo ?hi shards) (Array.init shards mk)

  let forest ?config ?(obs_of = fun _ -> Bw_obs.Null) ?lo ?hi ~shards () :
      key driver =
    shard ?lo ?hi ~shards (fun i -> bwtree ?config ~obs:(obs_of i) ())

  (* --- durable Bw-Trees: pagestore-backed recovery + group-commit WAL --- *)

  let durable ?config ?(obs_of = fun _ -> Bw_obs.Null) ?lo ?hi ?segment_bytes
      ?page_items ?(fsync = true) ?on_replay ~shards ~dir () : key durable =
    let stores =
      Array.init shards (fun i ->
          Durable.open_dir ?config ~obs:(obs_of i) ?segment_bytes ?page_items
            ~fsync
            ?on_replay:(Option.map (fun f -> f i) on_replay)
            ~dir:(Pagestore.Store.shard_dir dir ~shards i) ())
    in
    let each f = Array.iter (fun (st, _) -> f st) stores in
    {
      dur_driver =
        shard ?lo ?hi ~shards (fun i ->
            let st = fst stores.(i) in
            Durable.wrap_driver st (driver_of_tree (Durable.tree st)));
      dur_checkpoint =
        (fun ?tid ?mode () ->
          each (fun st -> ignore (Durable.checkpoint ?tid ?mode st : int * int)));
      dur_close = (fun () -> each Durable.close);
      dur_stats =
        Array.fold_left
          (fun acc (_, s) -> Pagestore.Store.merge_stats acc s)
          (snd stores.(0))
          (Array.sub stores 1 (shards - 1));
      dur_sources = Array.map (fun (st, _) -> Durable.repl_source st) stores;
    }
end

module Int = Make (struct
  include Int_key
  include (Pagestore.Codec.Int : Pagestore.Codec.CODEC with type t := int)

  let tag = "int"
  let part ?(lo = 0) ?hi n = Bw_shard.Part.make_int ~lo ?hi n
  let shard_of = Bw_shard.Part.shard_of_int
  let route = Bw_shard.route_int
  let of_workload = Workload.int_key_of
  let workload_range = (Some 0, None)
end)

module Str = Make (struct
  include String_key
  include (Pagestore.Codec.String : Pagestore.Codec.CODEC with type t := string)

  let tag = "str"
  let part ?lo ?hi n = Bw_shard.Part.make ?lo ?hi n
  let shard_of = Bw_shard.Part.shard_of_binary
  let route = Bw_shard.route_binary

  let of_workload = function
    | Workload.Email -> Workload.email_key_of
    | _ -> invalid_arg "Drivers.Str.of_workload: not a string key space"

  (* email keys all start with a lowercase name *)
  let workload_range = (Some "a", Some "z")
end)

let of_key_type : string -> (module S) = function
  | "int" -> (module Int)
  | "str" -> (module Str)
  | s -> invalid_arg (Printf.sprintf "unknown key type %S (try: int, str)" s)

let of_key_space : Workload.key_space -> (module S) = function
  | Workload.Email -> (module Str)
  | _ -> (module Int)

(* Names the benchmark in perfbench/ is written against. *)
module Bw_int = Int.Bw
module Durable_int = Int.Durable

let bw_int_driver_of_tree = Int.driver_of_tree
