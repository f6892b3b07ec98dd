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
    address indirection through a manifest and CRC-validated reads.
    Superseded checkpoints are reclaimed a whole log at a time: [Store]
    writes each one into a fresh generation and deletes the old. *)

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

  type saved = {
    sv_manifest : Log.offset;  (* the fresh manifest's address *)
    sv_pages : int;  (* page records appended *)
    sv_bytes : int;  (* their payload bytes *)
  }

  (* Write a checkpoint of [tree] into [log]: one page record per
     non-empty leaf, in key order, each written by [T.iter_leaf_pages] —
     so record granularity follows the tree's own leaf size — then a
     manifest indexing them. The snapshot walks the live tree, so it is
     only point-in-time if the caller quiesces writers first — [Store]
     cuts its checkpoints at epoch barriers for exactly this reason.
     [wal_gen] and [wal_pos] name the delta-WAL suffix that continues
     this snapshot; a standalone checkpoint leaves them zero. *)
  let save ?(wal_gen = 0) ?(wal_pos = 0) tree log =
    let pages = ref [] in
    let total = ref 0 and bytes = ref 0 in
    T.iter_leaf_pages tree (fun page ->
        total := !total + T.Page.length page;
        let payload = encode_page page in
        bytes := !bytes + String.length payload;
        pages := Log.append log payload :: !pages);
    let pages = Array.of_list (List.rev !pages) in
    let moff =
      Log.append log
        (encode_manifest ~wal_gen ~wal_pos ~pages ~item_count:!total)
    in
    { sv_manifest = moff; sv_pages = Array.length pages; sv_bytes = !bytes }

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
end
