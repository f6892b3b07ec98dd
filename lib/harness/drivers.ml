(** Concrete driver instances: the six indexes of §6 (plus configuration
    variants of the Bw-Tree), over integer and string (email) keys. *)

open Index_iface

module Bw_int = Bwtree.Make (Int_key) (Int_value)
module Bw_str = Bwtree.Make (String_key) (Int_value)
module Bt_int = Btree_olc.Make (Int_key) (Int_value)
module Bt_str = Btree_olc.Make (String_key) (Int_value)
module Sl_int = Skiplist.Make (Int_key) (Int_value)
module Sl_str = Skiplist.Make (String_key) (Int_value)
module Ar_int = Art_olc.Make (Int_key) (Int_value)
module Ar_str = Art_olc.Make (String_key) (Int_value)
module Mt_int = Masstree.Make (Int_key) (Int_value)
module Mt_str = Masstree.Make (String_key) (Int_value)

let hd_opt = function [] -> None | v :: _ -> Some v

(* --- Bw-Tree drivers (OpenBw, baseline Bw, and arbitrary configs) --- *)

(* Driver batch ops in tree terms, mirroring the per-op closures below
   (remove deletes with value 0, read reports the newest value). The
   conversion arrays are batch-sized, so they go through [Bw_util.Arr]
   to avoid a forced minor collection per batch. *)
let bw_int_batch tree ~tid ops =
  let bops =
    Bw_util.Arr.map
      (function
        | Bop_insert (k, v) -> (k, Bw_int.B_insert v)
        | Bop_update (k, v) -> (k, Bw_int.B_update v)
        | Bop_upsert (k, v) -> (k, Bw_int.B_upsert v)
        | Bop_remove k -> (k, Bw_int.B_delete 0)
        | Bop_read k -> (k, Bw_int.B_get))
      ops
  in
  Bw_util.Arr.map
    (function
      | Bw_int.R_applied b -> Bres_applied b
      | Bw_int.R_values vs -> Bres_value (hd_opt vs))
    (Bw_int.execute_batch tree ~tid bops)

let bw_str_batch tree ~tid ops =
  let bops =
    Bw_util.Arr.map
      (function
        | Bop_insert (k, v) -> (k, Bw_str.B_insert v)
        | Bop_update (k, v) -> (k, Bw_str.B_update v)
        | Bop_upsert (k, v) -> (k, Bw_str.B_upsert v)
        | Bop_remove k -> (k, Bw_str.B_delete 0)
        | Bop_read k -> (k, Bw_str.B_get))
      ops
  in
  Bw_util.Arr.map
    (function
      | Bw_str.R_applied b -> Bres_applied b
      | Bw_str.R_values vs -> Bres_value (hd_opt vs))
    (Bw_str.execute_batch tree ~tid bops)

(* The driver view of an existing tree instance — the common core of the
   create-and-wrap constructors below and the durable (recovered-tree)
   constructors further down. *)
let bw_int_driver_of_tree ?(name = "OpenBw-Tree") tree : int Runner.driver =
  {
    Runner.name;
    insert = (fun ~tid k v -> Bw_int.insert tree ~tid k v);
    read = (fun ~tid k -> Bw_int.find tree ~tid k);
    update = (fun ~tid k v -> Bw_int.update tree ~tid k v);
    remove = (fun ~tid k -> Bw_int.delete tree ~tid k 0);
    scan = (fun ~tid k ~n visit -> Bw_int.scan_iter tree ~tid ~n k visit);
    batch = Some (bw_int_batch tree);
    start_aux = (fun () -> Bw_int.start_gc_thread tree ());
    stop_aux = (fun () -> Bw_int.stop_gc_thread tree);
    thread_done = (fun ~tid -> Bw_int.quiesce tree ~tid);
    memory_words = (fun () -> Bw_int.memory_words tree);
  }

let bw_str_driver_of_tree ?(name = "OpenBw-Tree") tree : string Runner.driver =
  {
    Runner.name;
    insert = (fun ~tid k v -> Bw_str.insert tree ~tid k v);
    read = (fun ~tid k -> Bw_str.find tree ~tid k);
    update = (fun ~tid k v -> Bw_str.update tree ~tid k v);
    remove = (fun ~tid k -> Bw_str.delete tree ~tid k 0);
    scan = (fun ~tid k ~n visit -> Bw_str.scan_iter tree ~tid ~n k visit);
    batch = Some (bw_str_batch tree);
    start_aux = (fun () -> Bw_str.start_gc_thread tree ());
    stop_aux = (fun () -> Bw_str.stop_gc_thread tree);
    thread_done = (fun ~tid -> Bw_str.quiesce tree ~tid);
    memory_words = (fun () -> Bw_str.memory_words tree);
  }

let bwtree_driver_int ?name ?config ?obs () : int Runner.driver =
  bw_int_driver_of_tree ?name (Bw_int.create ?config ?obs ())

(* exposes the underlying tree for experiments that need statistics *)
let bwtree_instance_int ?config ?obs () =
  let tree = Bw_int.create ?config ?obs () in
  (tree, fun name -> bw_int_driver_of_tree ~name tree)

let bwtree_driver_str ?name ?config ?obs () : string Runner.driver =
  bw_str_driver_of_tree ?name (Bw_str.create ?config ?obs ())

(* --- lock-based / lock-free comparators --- *)

let btree_driver_int () : int Runner.driver =
  let t = Bt_int.create () in
  {
    Runner.name = "B+Tree";
    insert = (fun ~tid k v -> Bt_int.insert t ~tid k v);
    read = (fun ~tid k -> Bt_int.lookup t ~tid k);
    update = (fun ~tid k v -> Bt_int.update t ~tid k v);
    remove = (fun ~tid k -> Bt_int.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Bt_int.scan t ~tid k ~n visit);
    batch = None;
    start_aux = ignore;
    stop_aux = ignore;
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Bt_int.memory_words t);
  }

let btree_driver_str () : string Runner.driver =
  let t = Bt_str.create () in
  {
    Runner.name = "B+Tree";
    insert = (fun ~tid k v -> Bt_str.insert t ~tid k v);
    read = (fun ~tid k -> Bt_str.lookup t ~tid k);
    update = (fun ~tid k v -> Bt_str.update t ~tid k v);
    remove = (fun ~tid k -> Bt_str.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Bt_str.scan t ~tid k ~n visit);
    batch = None;
    start_aux = ignore;
    stop_aux = ignore;
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Bt_str.memory_words t);
  }

let skiplist_driver_int ?(policy = Skiplist.Background) () :
    int Runner.driver =
  let t = Sl_int.create ~policy () in
  {
    Runner.name =
      (match policy with
      | Skiplist.Background -> "SkipList"
      | Skiplist.Inline -> "SkipList-inline");
    insert = (fun ~tid k v -> Sl_int.insert t ~tid k v);
    read = (fun ~tid k -> Sl_int.lookup t ~tid k);
    update = (fun ~tid k v -> Sl_int.update t ~tid k v);
    remove = (fun ~tid k -> Sl_int.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Sl_int.scan t ~tid k ~n visit);
    batch = None;
    start_aux = (fun () -> Sl_int.start_aux t);
    stop_aux = (fun () -> Sl_int.stop_aux t);
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Sl_int.memory_words t);
  }

let skiplist_driver_str ?(policy = Skiplist.Background) () :
    string Runner.driver =
  let t = Sl_str.create ~policy () in
  {
    Runner.name = "SkipList";
    insert = (fun ~tid k v -> Sl_str.insert t ~tid k v);
    read = (fun ~tid k -> Sl_str.lookup t ~tid k);
    update = (fun ~tid k v -> Sl_str.update t ~tid k v);
    remove = (fun ~tid k -> Sl_str.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Sl_str.scan t ~tid k ~n visit);
    batch = None;
    start_aux = (fun () -> Sl_str.start_aux t);
    stop_aux = (fun () -> Sl_str.stop_aux t);
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Sl_str.memory_words t);
  }

let art_driver_int () : int Runner.driver =
  let t = Ar_int.create () in
  {
    Runner.name = "ART";
    insert = (fun ~tid k v -> Ar_int.insert t ~tid k v);
    read = (fun ~tid k -> Ar_int.lookup t ~tid k);
    update = (fun ~tid k v -> Ar_int.update t ~tid k v);
    remove = (fun ~tid k -> Ar_int.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Ar_int.scan t ~tid k ~n visit);
    batch = None;
    start_aux = ignore;
    stop_aux = ignore;
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Ar_int.memory_words t);
  }

let art_driver_str () : string Runner.driver =
  let t = Ar_str.create () in
  {
    Runner.name = "ART";
    insert = (fun ~tid k v -> Ar_str.insert t ~tid k v);
    read = (fun ~tid k -> Ar_str.lookup t ~tid k);
    update = (fun ~tid k v -> Ar_str.update t ~tid k v);
    remove = (fun ~tid k -> Ar_str.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Ar_str.scan t ~tid k ~n visit);
    batch = None;
    start_aux = ignore;
    stop_aux = ignore;
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Ar_str.memory_words t);
  }

let masstree_driver_int () : int Runner.driver =
  let t = Mt_int.create () in
  {
    Runner.name = "Masstree";
    insert = (fun ~tid k v -> Mt_int.insert t ~tid k v);
    read = (fun ~tid k -> Mt_int.lookup t ~tid k);
    update = (fun ~tid k v -> Mt_int.update t ~tid k v);
    remove = (fun ~tid k -> Mt_int.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Mt_int.scan t ~tid k ~n visit);
    batch = None;
    start_aux = ignore;
    stop_aux = ignore;
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Mt_int.memory_words t);
  }

let masstree_driver_str () : string Runner.driver =
  let t = Mt_str.create () in
  {
    Runner.name = "Masstree";
    insert = (fun ~tid k v -> Mt_str.insert t ~tid k v);
    read = (fun ~tid k -> Mt_str.lookup t ~tid k);
    update = (fun ~tid k v -> Mt_str.update t ~tid k v);
    remove = (fun ~tid k -> Mt_str.delete t ~tid k);
    scan = (fun ~tid k ~n visit -> Mt_str.scan t ~tid k ~n visit);
    batch = None;
    start_aux = ignore;
    stop_aux = ignore;
    thread_done = (fun ~tid -> ignore tid);
    memory_words = (fun () -> Mt_str.memory_words t);
  }

(* --- range-partitioned Bw-Tree forests (lib/shard router) --- *)

(* [obs_of i] supplies shard [i]'s metrics sink, so a forest can feed
   per-shard registries (labeled shard<i>_* series in the merged
   snapshot) or one shared registry — striping is by tid either way. *)
let bwtree_forest_int ?name ?config ?(obs_of = fun _ -> Bw_obs.Null) ?lo ?hi
    ~shards () : int Runner.driver =
  let part = Bw_shard.Part.make_int ?lo ?hi shards in
  Bw_shard.route_int ?name part
    (Array.init shards (fun i -> bwtree_driver_int ?config ~obs:(obs_of i) ()))

let bwtree_forest_str ?name ?config ?(obs_of = fun _ -> Bw_obs.Null) ?lo ?hi
    ~shards () : string Runner.driver =
  let part = Bw_shard.Part.make ?lo ?hi shards in
  Bw_shard.route_binary ?name part
    (Array.init shards (fun i -> bwtree_driver_str ?config ~obs:(obs_of i) ()))

(* --- durable Bw-Trees: pagestore-backed recovery + group-commit WAL --- *)

module Durable_int = Pagestore.Store.Make (Pagestore.Codec.Int) (Bw_int)
module Durable_str = Pagestore.Store.Make (Pagestore.Codec.String) (Bw_str)

(* A durable driver plus its lifecycle: [dur_checkpoint] cuts a new
   generation (call it quiesced — drained server, phase barrier; [mode]
   selects full rotation vs an in-place incremental manifest),
   [dur_close] fsyncs and releases the WAL without checkpointing (a
   clean close still recovers through WAL replay), [dur_stats] reports
   what boot-time recovery found. [dur_sources] exposes one replication
   source per shard (index = shard number; a single store is one-shard)
   for the WAL shipper. *)
type 'k durable = {
  dur_driver : 'k Runner.driver;
  dur_checkpoint : ?tid:int -> ?mode:[ `Full | `Incremental ] -> unit -> unit;
  dur_close : unit -> unit;
  dur_stats : Pagestore.Store.recovery_stats;
  dur_sources : Pagestore.Store.repl_source array;
}

let durable_bwtree_int ?name ?config ?(obs = Bw_obs.Null) ?segment_bytes
    ?page_items ?(fsync = true) ?on_replay ~dir () : int durable =
  let st, stats =
    Durable_int.open_dir ?config ~obs ?segment_bytes ?page_items ~fsync
      ?on_replay ~dir ()
  in
  {
    dur_driver =
      Durable_int.wrap_driver st
        (bw_int_driver_of_tree ?name (Durable_int.tree st));
    dur_checkpoint =
      (fun ?tid ?mode () ->
        ignore (Durable_int.checkpoint ?tid ?mode st : int * int));
    dur_close = (fun () -> Durable_int.close st);
    dur_stats = stats;
    dur_sources = [| Durable_int.repl_source st |];
  }

let durable_bwtree_str ?name ?config ?(obs = Bw_obs.Null) ?segment_bytes
    ?page_items ?(fsync = true) ?on_replay ~dir () : string durable =
  let st, stats =
    Durable_str.open_dir ?config ~obs ?segment_bytes ?page_items ~fsync
      ?on_replay ~dir ()
  in
  {
    dur_driver =
      Durable_str.wrap_driver st
        (bw_str_driver_of_tree ?name (Durable_str.tree st));
    dur_checkpoint =
      (fun ?tid ?mode () ->
        ignore (Durable_str.checkpoint ?tid ?mode st : int * int));
    dur_close = (fun () -> Durable_str.close st);
    dur_stats = stats;
    dur_sources = [| Durable_str.repl_source st |];
  }

(* Durable forest: shard [i] keeps its own generations and WAL under
   [dir/shard-<i>], so group commits never serialize across shards and a
   crash tears each shard's WAL independently (recovery is then
   per-(thread, shard) prefix-consistent). [on_replay] receives the
   shard index so a checker can attribute replayed ops. *)
let durable_bwtree_forest_int ?name ?config ?(obs_of = fun _ -> Bw_obs.Null)
    ?lo ?hi ?segment_bytes ?page_items ?(fsync = true) ?on_replay ~shards ~dir
    () : int durable =
  let part = Bw_shard.Part.make_int ?lo ?hi shards in
  let shard_dir i = Filename.concat dir (Printf.sprintf "shard-%02d" i) in
  let stores =
    Array.init shards (fun i ->
        Durable_int.open_dir ?config ~obs:(obs_of i) ?segment_bytes ?page_items
          ~fsync
          ?on_replay:(Option.map (fun f -> f i) on_replay)
          ~dir:(shard_dir i) ())
  in
  let drivers =
    Array.map
      (fun (st, _) ->
        Durable_int.wrap_driver st
          (bw_int_driver_of_tree (Durable_int.tree st)))
      stores
  in
  {
    dur_driver = Bw_shard.route_int ?name part drivers;
    dur_checkpoint =
      (fun ?tid ?mode () ->
        Array.iter
          (fun (st, _) ->
            ignore (Durable_int.checkpoint ?tid ?mode st : int * int))
          stores);
    dur_close =
      (fun () -> Array.iter (fun (st, _) -> Durable_int.close st) stores);
    dur_stats =
      Array.fold_left
        (fun acc (_, s) ->
          match acc with
          | None -> Some s
          | Some a -> Some (Pagestore.Store.merge_stats a s))
        None stores
      |> Option.get;
    dur_sources = Array.map (fun (st, _) -> Durable_int.repl_source st) stores;
  }

let durable_bwtree_forest_str ?name ?config ?(obs_of = fun _ -> Bw_obs.Null)
    ?lo ?hi ?segment_bytes ?page_items ?(fsync = true) ?on_replay ~shards ~dir
    () : string durable =
  let part = Bw_shard.Part.make ?lo ?hi shards in
  let shard_dir i = Filename.concat dir (Printf.sprintf "shard-%02d" i) in
  let stores =
    Array.init shards (fun i ->
        Durable_str.open_dir ?config ~obs:(obs_of i) ?segment_bytes ?page_items
          ~fsync
          ?on_replay:(Option.map (fun f -> f i) on_replay)
          ~dir:(shard_dir i) ())
  in
  let drivers =
    Array.map
      (fun (st, _) ->
        Durable_str.wrap_driver st
          (bw_str_driver_of_tree (Durable_str.tree st)))
      stores
  in
  {
    dur_driver = Bw_shard.route_binary ?name part drivers;
    dur_checkpoint =
      (fun ?tid ?mode () ->
        Array.iter
          (fun (st, _) ->
            ignore (Durable_str.checkpoint ?tid ?mode st : int * int))
          stores);
    dur_close =
      (fun () -> Array.iter (fun (st, _) -> Durable_str.close st) stores);
    dur_stats =
      Array.fold_left
        (fun acc (_, s) ->
          match acc with
          | None -> Some s
          | Some a -> Some (Pagestore.Store.merge_stats a s))
        None stores
      |> Option.get;
    dur_sources = Array.map (fun (st, _) -> Durable_str.repl_source st) stores;
  }

(* --- the six-index lineup used by §6 experiments --- *)

let int_lineup () : (string * (unit -> int Runner.driver)) list =
  [
    ("Bw-Tree", fun () -> bwtree_driver_int ~name:"Bw-Tree"
                    ~config:Bwtree.microsoft_config ());
    ("OpenBw-Tree", fun () -> bwtree_driver_int ());
    ("SkipList", fun () -> skiplist_driver_int ());
    ("Masstree", fun () -> masstree_driver_int ());
    ("B+Tree", fun () -> btree_driver_int ());
    ("ART", fun () -> art_driver_int ());
  ]

let str_lineup () : (string * (unit -> string Runner.driver)) list =
  [
    ("Bw-Tree", fun () -> bwtree_driver_str ~name:"Bw-Tree"
                    ~config:Bwtree.microsoft_config ());
    ("OpenBw-Tree", fun () -> bwtree_driver_str ());
    ("SkipList", fun () -> skiplist_driver_str ());
    ("Masstree", fun () -> masstree_driver_str ());
    ("B+Tree", fun () -> btree_driver_str ());
    ("ART", fun () -> art_driver_str ());
  ]
