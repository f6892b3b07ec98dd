(** A durable tree: checkpoint generations + delta WAL under one
    directory, with crash recovery.

    Layout (the LevelDB CURRENT-file idiom, applied to {!Log} dirs):

    {v
      <dir>/CURRENT         "gen=N"  — the committed generation
      <dir>/pages-<N>/      Log of checkpoint pages + manifest
      <dir>/wal-<N>/        Log of delta ops applied since that snapshot
    v}

    The committed state is always [pages-N] plus a prefix of [wal-N].
    A checkpoint writes the *next* generation in full (snapshot pages,
    then an empty successor WAL), flips [CURRENT] with an atomic rename,
    and only then deletes the old generation — every crash window leaves
    either the old generation intact or the new one complete, never an
    in-place half-rewrite. Checkpoints must run quiesced (no in-flight
    ops): the server checkpoints after its drain, the stress harness at
    a phase barrier. {!Make.checkpoint} additionally folds the epoch
    ([T.quiesce]) so the snapshot is epoch-consistent — no retired-but-
    unreclaimed state is reachable from it.

    Recovery trusts [CURRENT] when it names a loadable generation and
    otherwise falls back to the newest generation with a valid manifest
    (a crash during the very first open can leave pages without a
    CURRENT). It then replays the generation's WAL suffix from the
    manifest's [wal_pos] and sweeps every other generation directory.

    Commit point: an op is committed once its WAL record is appended
    (and fsynced, unless [fsync:false]) — {!Make.wrap_driver} logs each
    applied write after the tree accepts it and before the caller sees
    the result, batching a whole [batch] call into one group commit.
    WAL order may disagree with apply order for concurrent writers to
    the same key (the append happens outside the tree's critical
    section); recovery therefore promises a state reachable by *some*
    sequential application of a prefix-closed subset of acknowledged
    ops — per thread (and per shard), a prefix of what it was told was
    durable. *)

type recovery_stats = {
  rs_gen : int;  (** generation recovered into *)
  rs_fresh : bool;  (** no usable prior state was found *)
  rs_snapshot_items : int;  (** items bulk-loaded from checkpoint pages *)
  rs_pages : int;  (** checkpoint page records loaded *)
  rs_wal_ops : int;  (** delta ops replayed from the WAL suffix *)
  rs_wal_records : int;  (** commit records in the recovered WAL *)
  rs_truncated_bytes : int;  (** torn bytes cut across both logs *)
  rs_dropped_segments : int;  (** segment files dropped past a tear *)
}

(* Combine per-shard recoveries into one forest-wide summary. *)
let merge_stats a b =
  {
    rs_gen = max a.rs_gen b.rs_gen;
    rs_fresh = a.rs_fresh && b.rs_fresh;
    rs_snapshot_items = a.rs_snapshot_items + b.rs_snapshot_items;
    rs_pages = a.rs_pages + b.rs_pages;
    rs_wal_ops = a.rs_wal_ops + b.rs_wal_ops;
    rs_wal_records = a.rs_wal_records + b.rs_wal_records;
    rs_truncated_bytes = a.rs_truncated_bytes + b.rs_truncated_bytes;
    rs_dropped_segments = a.rs_dropped_segments + b.rs_dropped_segments;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "gen=%d%s snapshot_items=%d pages=%d wal_ops=%d wal_records=%d \
     truncated_bytes=%d dropped_segments=%d"
    s.rs_gen
    (if s.rs_fresh then " (fresh)" else "")
    s.rs_snapshot_items s.rs_pages s.rs_wal_ops s.rs_wal_records
    s.rs_truncated_bytes s.rs_dropped_segments

(* ---- directory plumbing ---- *)

let current_path dir = Filename.concat dir "CURRENT"
let pages_dir dir g = Filename.concat dir (Printf.sprintf "pages-%06d" g)
let wal_dir dir g = Filename.concat dir (Printf.sprintf "wal-%06d" g)

(* Where shard [i] of a [shards]-way durable forest keeps its generations
   and WAL: the root itself for a single store, [shard-<i>] below it for
   a forest, so every shard commits and crashes independently. *)
let shard_dir dir ~shards i =
  if shards = 1 then dir
  else Filename.concat dir (Printf.sprintf "shard-%02d" i)

let rec mkdir_p path =
  if path <> "" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dirpath =
  match Unix.openfile dirpath [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let read_current dir =
  let path = current_path dir in
  if not (Sys.file_exists path) then None
  else
    match
      Scanf.sscanf (String.trim (read_file path)) "gen=%d%!" (fun g -> g)
    with
    | g when g >= 0 -> Some g
    | _ -> None
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None

let write_current dir g =
  let path = current_path dir in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let line = Printf.sprintf "gen=%d\n" g in
      let b = Bytes.of_string line in
      let written = ref 0 in
      while !written < Bytes.length b do
        written :=
          !written + Unix.write fd b !written (Bytes.length b - !written)
      done;
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir dir

(* Generation numbers present on disk (from either kind of dir), newest
   first. *)
let gens_on_disk dir =
  let gens = Hashtbl.create 8 in
  Array.iter
    (fun name ->
      let note fmt =
        match Scanf.sscanf name fmt (fun g -> g) with
        | g -> Hashtbl.replace gens g ()
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
      in
      note "pages-%d%!";
      note "wal-%d%!")
    (Sys.readdir dir);
  List.sort (fun a b -> compare b a) (Hashtbl.fold (fun g () l -> g :: l) gens [])

module Make
    (KC : Codec.CODEC)
    (T : Bwtree.S with type key = KC.t and type value = int) =
struct
  module CP = Checkpoint.Make (Codec.Int) (T)
  module W = Wal.Make (KC) (Codec.Int)

  type t = {
    dir : string;
    tree : T.t;
    mutable wal : W.t;
    mutable gen : int;
    fsync : bool;
    segment_bytes : int option;
    obs : Bw_obs.sink;
    mu : Mutex.t;  (* serializes checkpoint against close *)
  }

  let tree t = t.tree
  let gen t = t.gen
  let wal t = t.wal
  let wal_ops t = W.pos t.wal

  let apply_op ?on_replay tree op =
    (match on_replay with Some f -> f op | None -> ());
    match op with
    | W.W_insert (k, v) -> ignore (T.insert tree k v : bool)
    | W.W_update (k, v) -> ignore (T.update tree k v : bool)
    | W.W_upsert (k, v) -> T.upsert tree k v
    | W.W_remove k -> ignore (T.delete tree k 0 : bool)

  (* Newest decodable manifest in a pages log. A checkpoint writes one
     manifest into a fresh log, but a log may hold several (older
     versions appended incremental manifests in place); the newest
     decodable one is the committed one — a torn append never decodes. *)
  let newest_manifest plog =
    let newest = ref None in
    Log.iter plog (fun off _ ->
        match CP.manifest plog off with
        | _ -> newest := Some off
        | exception Failure _ -> ());
    !newest

  (* Try to load generation [g]'s snapshot; None when its pages log has
     no decodable manifest (an unfinished checkpoint). *)
  let try_load_gen ?config ~obs ?segment_bytes ~readonly dir g =
    if not (Sys.file_exists (pages_dir dir g)) then None
    else begin
      let plog, pstats =
        Log.open_dir ?segment_bytes ~readonly ~dir:(pages_dir dir g) ()
      in
      Fun.protect
        ~finally:(fun () -> Log.close plog)
        (fun () ->
          match newest_manifest plog with
          | None -> None
          | Some moff -> (
              match
                let m = CP.manifest plog moff in
                (CP.load ?config ~obs plog moff, m)
              with
              | tree, m -> Some (tree, m, pstats)
              | exception Failure _ -> None))
    end

  (* Recover the committed state: the generation [CURRENT] names, or the
     first loadable one when it is missing or lies (first-open crash);
     its newest manifest, bulk-loaded; then the WAL suffix from the
     manifest's [wal_pos]. [readonly] mutates nothing on disk (no
     truncation, no sweeps — see {!Log.open_dir}). [None] when no
     generation loads. *)
  let recover ?config ~obs ?segment_bytes ~fsync ?on_replay ~readonly dir =
    let candidates =
      match read_current dir with
      | Some g -> g :: List.filter (fun g' -> g' <> g) (gens_on_disk dir)
      | None -> gens_on_disk dir
    in
    List.find_map
      (fun g ->
        Option.map
          (fun lg -> (g, lg))
          (try_load_gen ?config ~obs ?segment_bytes ~readonly dir g))
      candidates
    |> Option.map (fun (g, (tree, m, pstats)) ->
           let wal, wstats =
             W.open_dir ?segment_bytes ~readonly ~fsync ~obs
               ~dir:(wal_dir dir g) ()
           in
           let wal_ops =
             W.replay ~from:m.CP.wal_pos wal (apply_op ?on_replay tree)
           in
           ( tree,
             wal,
             {
               rs_gen = g;
               rs_fresh = false;
               rs_snapshot_items = m.CP.item_count;
               rs_pages = Array.length m.CP.pages;
               rs_wal_ops = wal_ops;
               rs_wal_records = W.records wal;
               rs_truncated_bytes =
                 pstats.Log.os_truncated_bytes + wstats.Log.os_truncated_bytes;
               rs_dropped_segments =
                 pstats.Log.os_dropped_segments
                 + wstats.Log.os_dropped_segments;
             } ))

  let open_dir ?config ?(obs = Bw_obs.Null) ?segment_bytes ?(fsync = true)
      ?on_replay ~dir () =
    mkdir_p dir;
    let tree, wal, stats =
      match
        recover ?config ~obs ?segment_bytes ~fsync ?on_replay ~readonly:false
          dir
      with
      | Some r -> r
      | None ->
          (* Fresh store (or nothing usable survived): start generation 0
             from scratch so every generation on disk is uniform —
             snapshot pages, then WAL. *)
          List.iter
            (fun g ->
              rm_rf (pages_dir dir g);
              rm_rf (wal_dir dir g))
            (gens_on_disk dir);
          let tree = T.create ?config ~obs () in
          let plog, _ = Log.open_dir ?segment_bytes ~dir:(pages_dir dir 0) () in
          ignore (CP.save tree plog : CP.saved);
          Log.sync plog;
          Log.close plog;
          let wal, _ =
            W.open_dir ?segment_bytes ~fsync ~obs ~dir:(wal_dir dir 0) ()
          in
          ( tree,
            wal,
            {
              rs_gen = 0;
              rs_fresh = true;
              rs_snapshot_items = 0;
              rs_pages = 0;
              rs_wal_ops = 0;
              rs_wal_records = 0;
              rs_truncated_bytes = 0;
              rs_dropped_segments = 0;
            } )
    in
    let st =
      {
        dir;
        tree;
        wal;
        gen = stats.rs_gen;
        fsync;
        segment_bytes;
        obs;
        mu = Mutex.create ();
      }
    in
    (* Re-point CURRENT (it may have been missing or stale) and sweep
       every other generation — crashed checkpoints, superseded state. *)
    write_current dir st.gen;
    List.iter
      (fun g ->
        if g <> st.gen then begin
          rm_rf (pages_dir dir g);
          rm_rf (wal_dir dir g)
        end)
      (gens_on_disk dir);
    rm_rf (current_path dir ^ ".tmp");
    fsync_dir dir;
    if Bw_obs.enabled obs then begin
      Bw_obs.add obs ~tid:0 Bw_obs.C_recovered_pages stats.rs_pages;
      Bw_obs.add obs ~tid:0 Bw_obs.C_recovered_wal_records stats.rs_wal_records
    end;
    (st, stats)

  (* Cut a checkpoint. The caller must have quiesced all writers (a
     drained server, a stress-phase barrier) — [scan_all] on a live tree
     would be fuzzy, and any op logged concurrently to the old WAL would
     be deleted with it. [tid] identifies the checkpointing thread to the
     epoch manager.

     Writes the *next* generation from scratch — snapshot pages, empty
     successor WAL — flips CURRENT, and deletes the old generation's
     files: the one way the store reclaims space. Returns the page
     records written and their payload bytes. *)
  let checkpoint ?(tid = 0) st =
    Mutex.lock st.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock st.mu)
      (fun () ->
        T.quiesce st.tree ~tid;
        let g' = st.gen + 1 in
        rm_rf (pages_dir st.dir g');
        rm_rf (wal_dir st.dir g');
        let plog, _ =
          Log.open_dir ?segment_bytes:st.segment_bytes
            ~dir:(pages_dir st.dir g') ()
        in
        let saved = CP.save ~wal_gen:g' ~wal_pos:0 st.tree plog in
        Log.sync plog;
        Log.close plog;
        let wal', _ =
          W.open_dir ?segment_bytes:st.segment_bytes ~fsync:st.fsync
            ~obs:st.obs ~dir:(wal_dir st.dir g') ()
        in
        write_current st.dir g';
        (* the flip is committed: everything before [g'] is garbage on
           disk *)
        let old_gen = st.gen and old_wal = st.wal in
        st.gen <- g';
        st.wal <- wal';
        W.close old_wal;
        rm_rf (pages_dir st.dir old_gen);
        rm_rf (wal_dir st.dir old_gen);
        fsync_dir st.dir;
        (saved.CP.sv_pages, saved.CP.sv_bytes))

  let close st =
    Mutex.lock st.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock st.mu)
      (fun () -> W.close st.wal)

  (* Make a driver durable: log every applied write, one group commit
     per batch call. Reads and scans pass through untouched. *)
  let wrap_driver st (d : KC.t Index_iface.driver) : KC.t Index_iface.driver =
    let batch ~tid (ops : KC.t Index_iface.batch_op array) =
      let res = Index_iface.exec_batch d ~tid ops in
      let group = ref [] in
      Array.iteri
        (fun i op ->
          match (op, res.(i)) with
          | Index_iface.Bop_insert (k, v), Index_iface.Bres_applied true ->
              group := W.W_insert (k, v) :: !group
          | Index_iface.Bop_update (k, v), Index_iface.Bres_applied true ->
              group := W.W_update (k, v) :: !group
          | Index_iface.Bop_upsert (k, v), Index_iface.Bres_applied true ->
              group := W.W_upsert (k, v) :: !group
          | Index_iface.Bop_remove k, Index_iface.Bres_applied true ->
              group := W.W_remove k :: !group
          | _ -> ())
        ops;
      W.commit st.wal ~tid (List.rev !group);
      res
    in
    {
      d with
      Index_iface.name = d.Index_iface.name ^ "+wal";
      insert =
        (fun ~tid k v ->
          let ok = d.Index_iface.insert ~tid k v in
          if ok then W.commit st.wal ~tid [ W.W_insert (k, v) ];
          ok);
      update =
        (fun ~tid k v ->
          let ok = d.Index_iface.update ~tid k v in
          if ok then W.commit st.wal ~tid [ W.W_update (k, v) ];
          ok);
      remove =
        (fun ~tid k ->
          let ok = d.Index_iface.remove ~tid k in
          if ok then W.commit st.wal ~tid [ W.W_remove k ];
          ok);
      batch = Some batch;
    }

  (* Read-only recovery: load the committed state exactly as [open_dir]
     would, without mutating the directory in any way (no CURRENT
     rewrite, no sweeps, no truncation, no fresh-store bootstrap). Safe
     to point at a live store owned by another process ([bwt_inspect
     --data-dir]). [None] when the directory holds nothing loadable. *)
  let inspect_dir ?config ?(obs = Bw_obs.Null) ?segment_bytes ~dir () =
    if not (Sys.file_exists dir) then None
    else
      Option.map
        (fun (tree, _, stats) -> (tree, stats))
        (recover ?config ~obs ?segment_bytes ~fsync:false ~readonly:true dir)
end
