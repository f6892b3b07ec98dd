type offset = int

(* Record layout within a segment:
     magic (1 byte, 0xA5) | length (4 bytes LE) | crc32 (4 bytes LE) | payload
   A magic of 0x00 (fresh segment fill) terminates the segment scan.

   On disk each segment is one file; a segment that filled up and handed
   off to a successor gets one trailing seal byte (0x5E) past its last
   record, so recovery can tell "cleanly closed" from "tail torn exactly
   at a record boundary". The seal lives only in the file — the in-memory
   image keeps the 0x00 fill, and [used] never counts it. *)

let magic = '\xA5'
let seal = '\x5E'
let header_bytes = 9

type segment = { buf : Bytes.t; mutable used : int }

type backing = {
  b_dir : string;
  mutable b_fd : Unix.file_descr; (* active (last) segment file, O_APPEND *)
  mutable b_dirty : bool; (* bytes written since the last fsync *)
  mutable b_closed : bool;
}

type t = {
  segment_bytes : int;
  segments : segment Bw_util.Growable.t;
  mutable nrecords : int;
  backing : backing option;
}

type open_stats = {
  os_records : int;
  os_truncated_bytes : int;
  os_dropped_segments : int;
}

let fresh_seg segment_bytes = { buf = Bytes.make segment_bytes '\x00'; used = 0 }

let growable_of_segment s =
  let g = Bw_util.Growable.create () in
  Bw_util.Growable.push g s;
  g

let create ?(segment_bytes = 256 * 1024) () =
  if segment_bytes < 64 then invalid_arg "Log.create: segment too small";
  {
    segment_bytes;
    segments = growable_of_segment (fresh_seg segment_bytes);
    nrecords = 0;
    backing = None;
  }

let segment_count t = Bw_util.Growable.length t.segments
let segment_bytes t = t.segment_bytes
let records t = t.nrecords
let dir t = Option.map (fun b -> b.b_dir) t.backing
let seg t i = Bw_util.Growable.get t.segments i

let bytes_used t =
  Bw_util.Growable.fold_left (fun acc s -> acc + s.used) 0 t.segments

(* ---- file plumbing ---- *)

let segment_path ~dir i = Filename.concat dir (Printf.sprintf "seg-%06d.log" i)
let meta_path dir = Filename.concat dir "log.meta"

let rec mkdir_p path =
  if path <> "" && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_fully fd bytes pos len =
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes (pos + !written) (len - !written)
  done

let fsync_dir dirpath =
  (* Persist directory entries (created/removed/renamed files). Some
     filesystems refuse fsync on a directory fd; durability is then the
     filesystem's promise, not ours. *)
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

let truncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.ftruncate fd len;
      Unix.fsync fd)

(* ---- appends ---- *)

(* Encode into the in-memory image only; the caller mirrors to disk. *)
let append_mem t payload =
  let need = header_bytes + String.length payload in
  if need > t.segment_bytes then
    invalid_arg "Log.append: record larger than a segment";
  let seg_idx, s =
    let last = segment_count t - 1 in
    let s = seg t last in
    if s.used + need <= t.segment_bytes then (last, s)
    else begin
      let s' = fresh_seg t.segment_bytes in
      Bw_util.Growable.push t.segments s';
      (last + 1, s')
    end
  in
  let pos = s.used in
  Bytes.set s.buf pos magic;
  Bytes.set_int32_le s.buf (pos + 1) (Int32.of_int (String.length payload));
  Bytes.set_int32_le s.buf (pos + 5) (Bw_util.Crc32.string payload);
  Bytes.blit_string payload 0 s.buf (pos + header_bytes)
    (String.length payload);
  s.used <- pos + need;
  t.nrecords <- t.nrecords + 1;
  (seg_idx * t.segment_bytes) + pos

(* Seal the filled segment's file and make its successor the active one.
   The old segment's unsynced records ride along on the seal's fsync. *)
let file_switch_segment b new_idx =
  let seal_byte = Bytes.make 1 seal in
  write_fully b.b_fd seal_byte 0 1;
  Unix.fsync b.b_fd;
  Unix.close b.b_fd;
  b.b_fd <-
    Unix.openfile
      (segment_path ~dir:b.b_dir new_idx)
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_APPEND ]
      0o644;
  b.b_dirty <- false;
  fsync_dir b.b_dir

let append t payload =
  match t.backing with
  | None -> append_mem t payload
  | Some b when b.b_closed -> append_mem t payload
  | Some b ->
      let last_before = segment_count t - 1 in
      let off = append_mem t payload in
      let seg_idx = off / t.segment_bytes and pos = off mod t.segment_bytes in
      if seg_idx > last_before then file_switch_segment b seg_idx;
      let s = seg t seg_idx in
      write_fully b.b_fd s.buf pos (header_bytes + String.length payload);
      b.b_dirty <- true;
      off

let sync t =
  match t.backing with
  | Some b when b.b_dirty && not b.b_closed ->
      Unix.fsync b.b_fd;
      b.b_dirty <- false
  | _ -> ()

let close t =
  match t.backing with
  | Some b when not b.b_closed ->
      if b.b_dirty then Unix.fsync b.b_fd;
      Unix.close b.b_fd;
      b.b_closed <- true;
      b.b_dirty <- false
  | _ -> ()

(* ---- reads ---- *)

let decode_at t off =
  let seg_idx = off / t.segment_bytes and pos = off mod t.segment_bytes in
  if seg_idx < 0 || pos < 0 || seg_idx >= segment_count t then
    failwith "Log.read: bad address";
  let s = seg t seg_idx in
  if pos + header_bytes > s.used then failwith "Log.read: bad address";
  if Bytes.get s.buf pos <> magic then failwith "Log.read: bad address";
  let len = Int32.to_int (Bytes.get_int32_le s.buf (pos + 1)) in
  if len < 0 || pos + header_bytes + len > s.used then
    failwith "Log.read: bad address";
  let stored_crc = Bytes.get_int32_le s.buf (pos + 5) in
  let payload = Bytes.sub_string s.buf (pos + header_bytes) len in
  if Bw_util.Crc32.string payload <> stored_crc then
    failwith "Log.read: corrupted record (crc mismatch)";
  payload

let read = decode_at

let iter t f =
  for seg_idx = 0 to segment_count t - 1 do
    let s = seg t seg_idx in
    let pos = ref 0 in
    while !pos + header_bytes <= s.used && Bytes.get s.buf !pos = magic do
      let off = (seg_idx * t.segment_bytes) + !pos in
      let payload = decode_at t off in
      f off payload;
      pos := !pos + header_bytes + String.length payload
    done
  done

(* ---- open / recovery ---- *)

let read_meta dirpath =
  let path = meta_path dirpath in
  if not (Sys.file_exists path) then None
  else
    match
      Scanf.sscanf (String.trim (read_file path)) "segment_bytes=%d%!"
        (fun n -> n)
    with
    | n when n >= 64 -> Some n
    | _ -> failwith (Printf.sprintf "Log.open_dir: bad meta file %s" path)
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        failwith (Printf.sprintf "Log.open_dir: bad meta file %s" path)

let write_meta dirpath segment_bytes =
  let path = meta_path dirpath in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let line = Printf.sprintf "segment_bytes=%d\n" segment_bytes in
      write_fully fd (Bytes.of_string line) 0 (String.length line);
      Unix.fsync fd)

(* Walk one segment file's records; returns [(used, nrecs, clean)] where
   [used] is the byte length of the valid record prefix and [clean] means
   the bytes past it are legitimate (a seal closing a non-final segment,
   or nothing at all). *)
let scan_segment ~segment_bytes ~is_last data =
  let size = String.length data in
  let pos = ref 0 and nrecs = ref 0 and stop = ref false in
  while not !stop do
    let p = !pos in
    if p + header_bytes > size || p + header_bytes > segment_bytes then
      stop := true
    else if data.[p] <> magic then stop := true
    else begin
      let len = Int32.to_int (String.get_int32_le data (p + 1)) in
      if
        len < 0
        || p + header_bytes + len > size
        || p + header_bytes + len > segment_bytes
      then stop := true
      else begin
        let stored = String.get_int32_le data (p + 5) in
        let payload = String.sub data (p + header_bytes) len in
        if Bw_util.Crc32.string payload <> stored then stop := true
        else begin
          pos := p + header_bytes + len;
          incr nrecs
        end
      end
    end
  done;
  let clean =
    if is_last then !pos = size
    else !pos + 1 = size && data.[!pos] = seal
  in
  (!pos, !nrecs, clean)

let open_dir ?(segment_bytes = 256 * 1024) ?(readonly = false) ~dir:dirpath ()
    =
  if segment_bytes < 64 then invalid_arg "Log.open_dir: segment too small";
  if not readonly then mkdir_p dirpath;
  let seg_bytes =
    match if Sys.file_exists dirpath then read_meta dirpath else None with
    | Some sb -> sb
    | None ->
        if not readonly then write_meta dirpath segment_bytes;
        segment_bytes
  in
  let nfiles = ref 0 in
  while Sys.file_exists (segment_path ~dir:dirpath !nfiles) do
    incr nfiles
  done;
  (* Sweep segment files past a gap in the numbering (they can't be part
     of the contiguous log and would splice stale data into a future
     recovery once the gap refills). Read-only opens report what the scan
     would do without touching the directory, so a live store can be
     inspected from another process. *)
  if not readonly then
    Array.iter
      (fun name ->
        match Scanf.sscanf name "seg-%d.log%!" (fun i -> i) with
        | i when i >= !nfiles -> Sys.remove (Filename.concat dirpath name)
        | _ -> ()
        | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ())
      (Sys.readdir dirpath);
  let segments = Bw_util.Growable.create () in
  let nrecords = ref 0 in
  let truncated = ref 0 and dropped = ref 0 in
  let torn = ref false in
  for i = 0 to !nfiles - 1 do
    let path = segment_path ~dir:dirpath i in
    if !torn then begin
      (* a predecessor's tail was cut: nothing after it may survive *)
      truncated := !truncated + (Unix.stat path).Unix.st_size;
      incr dropped;
      if not readonly then Sys.remove path
    end
    else begin
      let data = read_file path in
      let size = String.length data in
      let is_last = i = !nfiles - 1 in
      let used, nrecs, clean = scan_segment ~segment_bytes:seg_bytes ~is_last data in
      let s = fresh_seg seg_bytes in
      Bytes.blit_string data 0 s.buf 0 used;
      s.used <- used;
      Bw_util.Growable.push segments s;
      nrecords := !nrecords + nrecs;
      if is_last then begin
        if used < size then begin
          (* cut the torn tail — unless it's just a seal written right
             before a crash beat the successor file into existence *)
          if not (size = used + 1 && data.[used] = seal) then
            truncated := !truncated + (size - used);
          if not readonly then truncate_file path used
        end
      end
      else if not clean then begin
        truncated := !truncated + (size - used);
        if not readonly then truncate_file path used;
        torn := true
      end
    end
  done;
  if Bw_util.Growable.length segments = 0 then begin
    Bw_util.Growable.push segments (fresh_seg seg_bytes);
    if not readonly then
      Unix.close
        (Unix.openfile
           (segment_path ~dir:dirpath 0)
           [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
           0o644)
  end;
  if not readonly then fsync_dir dirpath;
  let backing =
    if readonly then None
    else begin
      let active_idx = Bw_util.Growable.length segments - 1 in
      let fd =
        Unix.openfile
          (segment_path ~dir:dirpath active_idx)
          [ Unix.O_WRONLY; Unix.O_APPEND ]
          0o644
      in
      Some { b_dir = dirpath; b_fd = fd; b_dirty = false; b_closed = false }
    end
  in
  let t =
    { segment_bytes = seg_bytes; segments; nrecords = !nrecords; backing }
  in
  ( t,
    {
      os_records = !nrecords;
      os_truncated_bytes = !truncated;
      os_dropped_segments = !dropped;
    } )

(* ---- test hooks ---- *)

let corrupt_for_testing t off =
  let seg_idx = off / t.segment_bytes and pos = off mod t.segment_bytes in
  let s = seg t seg_idx in
  let len = Int32.to_int (Bytes.get_int32_le s.buf (pos + 1)) in
  (* An empty record has no payload byte to flip, and the byte past its
     header is the *next* record's magic (flipping that silently ends the
     iter scan instead of failing the CRC) — flip a stored-CRC byte. *)
  let target = if len = 0 then pos + 5 else pos + header_bytes in
  Bytes.set s.buf target
    (Char.chr (Char.code (Bytes.get s.buf target) lxor 0xFF));
  match t.backing with
  | Some b when not b.b_closed ->
      (* A fresh non-O_APPEND fd: Linux makes pwrite on an O_APPEND fd
         append regardless of the offset. *)
      let fd =
        Unix.openfile (segment_path ~dir:b.b_dir seg_idx) [ Unix.O_WRONLY ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore (Unix.lseek fd target Unix.SEEK_SET);
          write_fully fd (Bytes.make 1 (Bytes.get s.buf target)) 0 1;
          Unix.fsync fd)
  | _ -> ()
