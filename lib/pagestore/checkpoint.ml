(** Checkpointing a Bw-Tree to the log-structured page store and
    recovering it.

    Real LLAMA [23] writes physical delta/base pages out-of-place and keeps
    flash addresses in the mapping table. Here the checkpoint writes the
    tree's own leaf pages: {!Bwtree.S.iter_leaf_pages} consolidates each
    leaf and hands over its page, whose keys {!Leaf_page.S.encode}
    serializes through the tree's own [KEY.to_binary] — which is why this
    functor takes no key codec. A
    manifest record indexes the page records, and recovery rebuilds a
    fresh tree from the decoded pages. The substitution preserves the
    behaviours the substrate exists for — out-of-place page writes,
    address indirection through a manifest, CRC-validated reads, and
    segment garbage collection reclaiming superseded checkpoints. *)

module Make (VC : Codec.CODEC) (T : Bwtree.S with type value = VC.t) = struct
  type manifest = {
    pages : Log.offset array;
    item_count : int;
    wal_gen : int;
        (* the WAL generation whose records continue this checkpoint *)
    wal_pos : int;
        (* ops of that WAL already folded into the pages; recovery
           replays the suffix from here *)
  }

  let page_tag = 'P'
  let manifest_tag = 'C'

  let encode_page page =
    let buf = Buffer.create 1024 in
    Buffer.add_char buf page_tag;
    T.Page.encode buf VC.encode page;
    Buffer.contents buf

  let decode_page payload =
    if String.length payload = 0 || payload.[0] <> page_tag then
      failwith "Checkpoint: not a page record";
    let pos = ref 1 in
    T.Page.decode payload ~pos ~value:(fun () -> VC.decode payload ~pos)

  let encode_manifest ~wal_gen ~wal_pos ~pages ~item_count =
    let buf = Buffer.create 256 in
    Buffer.add_char buf manifest_tag;
    Codec.encode_int buf (Array.length pages);
    Array.iter (fun off -> Codec.encode_int buf off) pages;
    Codec.encode_int buf item_count;
    Codec.encode_int buf wal_gen;
    Codec.encode_int buf wal_pos;
    Buffer.contents buf

  (* Malformed input raises [Failure] only, which is what
     [Store.newest_manifest] skips. *)
  let decode_manifest payload =
    let len = String.length payload in
    if len = 0 || payload.[0] <> manifest_tag then
      failwith "Checkpoint: not a manifest record";
    let pos = ref 1 in
    let n = Codec.decode_int payload ~pos in
    (* each page offset takes 8 bytes *)
    if n < 0 || n > (len - !pos) / 8 then
      failwith "Checkpoint: bad manifest page count";
    let pages = Array.init n (fun _ -> Codec.decode_int payload ~pos) in
    let item_count = Codec.decode_int payload ~pos in
    let wal_gen = Codec.decode_int payload ~pos in
    let wal_pos = Codec.decode_int payload ~pos in
    if !pos <> len then failwith "Checkpoint: trailing manifest bytes";
    { pages; item_count; wal_gen; wal_pos }

  type save_report = {
    sr_manifest : Log.offset;  (* the fresh manifest's address *)
    sr_pages : int;  (* page records newly appended *)
    sr_reused : int;  (* page addresses inherited from [prev] *)
    sr_live_bytes : int;
        (* total payload bytes of the new manifest's page records
           (written + reused) — lets [Store] track the pages log's dead
           share across an incremental chain without re-reading live
           pages *)
  }

  (* Write a checkpoint of [tree] into [log]; returns where the manifest
     landed plus how much page writing it avoided.

     One page record per non-empty leaf, in key order, each written by
     [T.iter_leaf_pages] — so record granularity follows the tree's own
     leaf size, not a caller knob. [page_items] is accepted for
     compatibility and ignored. The snapshot walks the live tree, so it
     is only point-in-time if the caller quiesces writers first —
     [Store] cuts its checkpoints at epoch barriers for exactly this
     reason. [wal_gen] and [wal_pos] name the delta-WAL suffix that
     continues this snapshot; a standalone checkpoint leaves them zero.

     [prev] is an earlier manifest whose page records live in this same
     [log]: any leaf whose encoding is byte-identical to one of [prev]'s
     pages is indexed by its existing address instead of being written
     again — an incremental checkpoint in the LLAMA sense (only changed
     pages are flushed; the manifest is the mapping-table fix-up).
     Comparison is by full payload, so a reused address is always
     correct, never merely probably so. *)
  let save_report ?page_items:_ ?(wal_gen = 0) ?(wal_pos = 0) ?prev tree log =
    let known = Hashtbl.create 256 in
    (match prev with
    | None -> ()
    | Some m ->
        Array.iter
          (fun off -> Hashtbl.replace known (Log.read log off) off)
          m.pages);
    let pages = ref [] in
    let total = ref 0 in
    let written = ref 0 and reused = ref 0 in
    let live_bytes = ref 0 in
    T.iter_leaf_pages tree (fun page ->
        total := !total + T.Page.length page;
        let payload = encode_page page in
        live_bytes := !live_bytes + String.length payload;
        let off =
          match Hashtbl.find_opt known payload with
          | Some off ->
              incr reused;
              off
          | None ->
              incr written;
              Log.append log payload
        in
        pages := off :: !pages);
    let pages = Array.of_list (List.rev !pages) in
    let moff =
      Log.append log
        (encode_manifest ~wal_gen ~wal_pos ~pages ~item_count:!total)
    in
    {
      sr_manifest = moff;
      sr_pages = !written;
      sr_reused = !reused;
      sr_live_bytes = !live_bytes;
    }

  let save ?page_items ?wal_gen ?wal_pos ?prev tree log =
    (save_report ?page_items ?wal_gen ?wal_pos ?prev tree log).sr_manifest

  let manifest log off = decode_manifest (Log.read log off)

  (* Rebuild a tree from the checkpoint at [off]. [config] must enable
     non-unique keys if the checkpointed tree did — a checkpoint of a
     non-unique index contains duplicate keys, and restoring it into a
     unique-keys tree would silently drop them (the count check below
     catches that mistake loudly instead). *)
  let load ?config ?obs log off =
    let m = manifest log off in
    let tree = T.create ?config ?obs () in
    let loaded = ref 0 in
    Array.iter
      (fun page_off ->
        let page = decode_page (Log.read log page_off) in
        T.Page.iter_from page 0 (fun k v ->
            if T.insert tree k v then incr loaded))
      m.pages;
    if !loaded <> m.item_count then
      failwith "Checkpoint.load: manifest item count mismatch";
    tree

  (* Liveness oracle for {!Log.compact}: only the *pages* reachable from
     the given manifests survive. The manifest records themselves are
     deliberately dead — they hold page addresses by value, so after
     relocation their payloads would dangle into pre-compaction space;
     {!compact_keeping} re-appends fresh manifests instead. (Marking the
     old manifests live, as an earlier version did, left both copies in
     the compacted log: readers that landed on a stale one chased
     pre-compaction offsets, and the reported reclamation was overstated
     by the pages those stale roots appeared to retain.)

     The manifests are decoded *before* compaction destroys them; the
     captured contents, a liveness predicate, the relocation callback and
     the old->new address translation are returned together. *)
  let gc_roots log manifest_offs =
    let captured =
      List.map (fun moff -> (moff, manifest log moff)) manifest_offs
    in
    let live = Hashtbl.create 64 in
    List.iter
      (fun (_, m) -> Array.iter (fun p -> Hashtbl.replace live p ()) m.pages)
      captured;
    let moved = Hashtbl.create 64 in
    let is_live off = Hashtbl.mem live off in
    let relocate old_off new_off = Hashtbl.replace moved old_off new_off in
    let translate off = Option.value ~default:off (Hashtbl.find_opt moved off) in
    (captured, is_live, relocate, translate)

  (* Compact the log keeping only the given checkpoints; returns the bytes
     reclaimed and the fresh manifest addresses (in the same order as
     [manifest_offs] — the old addresses are gone). Page offsets inside
     each re-appended manifest are translated to their post-compaction
     homes, the same fix-up LLAMA's incremental flush applies to its
     mapping table. *)
  let compact_keeping log manifest_offs =
    let captured, is_live, relocate, translate = gc_roots log manifest_offs in
    let reclaimed = Log.compact log ~live:is_live ~relocate in
    let fresh =
      List.map
        (fun (_, m) ->
          let pages = Array.map translate m.pages in
          Log.append log
            (encode_manifest ~wal_gen:m.wal_gen ~wal_pos:m.wal_pos ~pages
               ~item_count:m.item_count))
        captured
    in
    (reclaimed, fresh)
end
