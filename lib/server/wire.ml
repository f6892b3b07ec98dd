(** Length-prefixed binary wire protocol for the serving layer.

    Every message on the socket is a frame:

    {v
      +----------------+-------------------------+
      | u32 LE length  |  payload (length bytes) |
      +----------------+-------------------------+
    v}

    The payload reuses {!Pagestore.Codec} primitives: ints are 8-byte
    little-endian, strings are length-prefixed byte arrays. Keys travel as
    their binary-comparable encoding ({!Bw_util.Key_codec}), so the same
    protocol serves int- and string-keyed trees; values are 64-bit ints
    (tuple-pointer stand-ins, like everywhere else in this repo).

    Request payload: one opcode byte followed by opcode-specific fields.
    Response payload: one status byte (0 = OK, 1 = ERR) followed by a
    body whose shape is determined by the request it answers — responses
    are delivered strictly in request order per connection, which is what
    makes pipelining work without request ids.

    Decoding raises {!Malformed} on any violation; framing-level
    violations (oversized or negative lengths) are surfaced separately by
    {!Decoder.next} as [`Framing] so the server can drop the connection
    rather than resynchronize inside a corrupt stream. *)

exception Malformed of string

let bad fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let max_frame = 1 lsl 24
(** Hard cap on a single frame's payload (16 MiB). A peer announcing more
    is not speaking this protocol. *)

let max_scan = 65_536
(** Cap on one SCAN's item count, bounding response frames. *)

let max_batch = 4_096
(** Cap on sub-requests in one BATCH. *)

type put_mode = Insert | Update | Upsert

(** Replication stream frames, primary → standby. They ride the ordinary
    request/response protocol — the shipper is just another client of the
    standby — so FIFO-per-connection ordering and per-frame
    acknowledgement come for free. All payload byte strings (checkpoint
    page records, WAL commit-record groups) are opaque here: both ends
    run the same {!Pagestore} codecs and apply them verbatim. *)
type repl_req =
  | R_subscribe of { key_type : string; shards : int }
      (** opens (or resets) a replication session; the standby checks
          the topology matches its own and clears any partial state *)
  | R_snapshot of {
      shard : int;
      gen : int;
      start_rec : int;  (** WAL commit records folded into the pages *)
      start_ops : int;  (** WAL ops folded into the pages *)
      pages : string list;  (** raw checkpoint page records *)
      last : bool;  (** final chunk: standby verifies [items] and arms *)
      items : int;  (** manifest item count (meaningful when [last]) *)
    }
  | R_walchunk of {
      shard : int;
      gen : int;
      from_rec : int;  (** absolute record index of [groups]' head *)
      groups : string list;  (** raw commit-record payloads, in order *)
      p_recs : int;  (** primary's committed record count in [gen] *)
      p_bytes : int;
          (** primary's unshipped WAL-byte backlog after this chunk.
              Records travel as absolute totals ([p_recs]) because record
              indexes mean the same thing on both ends; byte positions do
              not (the standby never sees the primary's [Log] addresses,
              and a snapshot bootstrap folds a prefix of unknown framed
              size), so the byte lag is computed where it is exact — at
              the shipper's cursor — and shipped as a ready-made gauge
              value. *)
    }
  | R_promote of { data_dir : string option }
      (** seal the stream and flip read-write; [data_dir] points at the
          dead primary's store for the durable-tail replay *)

type req =
  | Get of string
  | Put of put_mode * string * int
  | Delete of string
  | Scan of string * int  (** start key (binary), item budget *)
  | Batch of req list  (** point ops and scans only — no nesting *)
  | Stats
  | Repl of repl_req  (** replication stream (never inside BATCH) *)
  | Topology of string option
      (** cluster partition table: [None] fetches the server's current
          table (encoded, opaque here); [Some t] offers one — the
          server installs it if its epoch is newer *)
  | Migrate of { m_lo : string; m_hi : string option; m_dst : int }
      (** start migrating the key range [[m_lo, m_hi)] ([None] = end of
          key space) to endpoint index [m_dst]; acknowledged when the
          migration is admitted, completion observed via TOPOLOGY *)
  | Ingest of (string * int option) list
      (** migration transfer: apply (key, [Some v] = upsert / [None] =
          delete) pairs through the ordinary batch path, bypassing the
          ownership gate — only a migration engine sends this *)

type resp =
  | Value of int option  (** GET *)
  | Applied of bool  (** PUT / DELETE *)
  | Scanned of (string * int) list  (** SCAN: binary key, value *)
  | Scanned_to of (string * int) list * string option
      (** SCAN answered by a cluster node: the items plus the exact
          continuation key — [Some k] when the node's owned range ended
          before the budget (resume at [k], possibly on another node),
          [None] when the key space is exhausted. The owner names the
          resume point so a router with a stale table never skips a
          sub-range that migrated away mid-scan. *)
  | Batched of resp list  (** BATCH: one reply per sub-request, in order *)
  | Stats_payload of string  (** STATS: JSON metrics snapshot *)
  | Repl_ok of int
      (** replication ack: records applied so far in the current
          generation (ops replayed, for PROMOTE) *)
  | Topology_payload of string  (** TOPOLOGY: the encoded table *)
  | Err of string
  | Err_wrong_shard of int64
      (** this node does not own the request's key under its current
          table (whose epoch rides along): refetch and retry *)
  | Err_read_only
      (** an un-promoted standby refused a write: retry on the
          primary *)

exception Wrong_shard of int64
(** Raised by the server's ownership gate; encoded as
    {!Err_wrong_shard}. *)

(* opcode bytes *)
let op_get = 1
let op_put = 2
let op_delete = 3
let op_scan = 4
let op_batch = 5
let op_stats = 6
let op_subscribe = 7
let op_snapshot = 8
let op_walchunk = 9
let op_promote = 10
let op_topology = 11
let op_migrate = 12
let op_ingest = 13

let st_ok = 0
let st_err = 1

let st_err_code = 2
(** Typed errors: [st_err_code], one code byte, then code-specific
    fields — machine-actionable failures the router dispatches on
    without parsing message strings. *)

let ec_wrong_shard = 1
let ec_read_only = 2

(* ------------------------------------------------------------------ *)
(* Payload encode/decode (Pagestore.Codec primitives)                  *)
(* ------------------------------------------------------------------ *)

module C = Pagestore.Codec

let put_mode_byte = function Insert -> 0 | Update -> 1 | Upsert -> 2

let put_mode_of_byte = function
  | 0 -> Insert
  | 1 -> Update
  | 2 -> Upsert
  | b -> bad "unknown PUT mode %d" b

let add_byte buf b = Buffer.add_char buf (Char.chr (b land 0xff))

let decode_byte s ~pos =
  if !pos >= String.length s then bad "truncated frame: missing byte";
  let b = Char.code s.[!pos] in
  incr pos;
  b

(* Codec raises Failure on truncation; narrow it to Malformed here so
   server/client code has a single protocol-error exception. *)
let decode_int s ~pos =
  try C.decode_int s ~pos with Failure m -> bad "%s" m

let decode_string s ~pos =
  try C.decode_string s ~pos with Failure m -> bad "%s" m

let rec encode_req buf = function
  | Get k ->
      add_byte buf op_get;
      C.encode_string buf k
  | Put (mode, k, v) ->
      add_byte buf op_put;
      add_byte buf (put_mode_byte mode);
      C.encode_string buf k;
      C.encode_int buf v
  | Delete k ->
      add_byte buf op_delete;
      C.encode_string buf k
  | Scan (k, n) ->
      add_byte buf op_scan;
      C.encode_string buf k;
      C.encode_int buf n
  | Batch reqs ->
      add_byte buf op_batch;
      C.encode_int buf (List.length reqs);
      List.iter (encode_req buf) reqs
  | Stats -> add_byte buf op_stats
  | Repl (R_subscribe { key_type; shards }) ->
      add_byte buf op_subscribe;
      C.encode_string buf key_type;
      C.encode_int buf shards
  | Repl (R_snapshot { shard; gen; start_rec; start_ops; pages; last; items })
    ->
      add_byte buf op_snapshot;
      C.encode_int buf shard;
      C.encode_int buf gen;
      C.encode_int buf start_rec;
      C.encode_int buf start_ops;
      C.encode_int buf items;
      add_byte buf (if last then 1 else 0);
      C.encode_int buf (List.length pages);
      List.iter (C.encode_string buf) pages
  | Repl (R_walchunk { shard; gen; from_rec; groups; p_recs; p_bytes }) ->
      add_byte buf op_walchunk;
      C.encode_int buf shard;
      C.encode_int buf gen;
      C.encode_int buf from_rec;
      C.encode_int buf p_recs;
      C.encode_int buf p_bytes;
      C.encode_int buf (List.length groups);
      List.iter (C.encode_string buf) groups
  | Repl (R_promote { data_dir }) -> (
      add_byte buf op_promote;
      match data_dir with
      | None -> add_byte buf 0
      | Some d ->
          add_byte buf 1;
          C.encode_string buf d)
  | Topology t -> (
      add_byte buf op_topology;
      match t with
      | None -> add_byte buf 0
      | Some s ->
          add_byte buf 1;
          C.encode_string buf s)
  | Migrate { m_lo; m_hi; m_dst } ->
      add_byte buf op_migrate;
      C.encode_string buf m_lo;
      (match m_hi with
      | None -> add_byte buf 0
      | Some h ->
          add_byte buf 1;
          C.encode_string buf h);
      C.encode_int buf m_dst
  | Ingest items ->
      add_byte buf op_ingest;
      C.encode_int buf (List.length items);
      List.iter
        (fun (k, v) ->
          C.encode_string buf k;
          match v with
          | None -> add_byte buf 0
          | Some v ->
              add_byte buf 1;
              C.encode_int buf v)
        items

let rec decode_req_at s ~pos ~depth =
  match decode_byte s ~pos with
  | b when b = op_get -> Get (decode_string s ~pos)
  | b when b = op_put ->
      let mode = put_mode_of_byte (decode_byte s ~pos) in
      let k = decode_string s ~pos in
      let v = decode_int s ~pos in
      Put (mode, k, v)
  | b when b = op_delete -> Delete (decode_string s ~pos)
  | b when b = op_scan ->
      let k = decode_string s ~pos in
      let n = decode_int s ~pos in
      if n < 0 then bad "SCAN with negative budget %d" n;
      if n > max_scan then bad "SCAN budget %d exceeds cap %d" n max_scan;
      Scan (k, n)
  | b when b = op_batch ->
      if depth > 0 then bad "nested BATCH";
      let n = decode_int s ~pos in
      if n < 0 then bad "BATCH with negative count %d" n;
      if n > max_batch then bad "BATCH count %d exceeds cap %d" n max_batch;
      Batch (List.init n (fun _ -> decode_req_at s ~pos ~depth:(depth + 1)))
  | b when b = op_stats ->
      if depth > 0 then bad "STATS inside BATCH" else Stats
  | b when b = op_subscribe ->
      if depth > 0 then bad "replication frame inside BATCH";
      let key_type = decode_string s ~pos in
      let shards = decode_int s ~pos in
      if shards < 1 then bad "SUBSCRIBE with shard count %d" shards;
      Repl (R_subscribe { key_type; shards })
  | b when b = op_snapshot ->
      if depth > 0 then bad "replication frame inside BATCH";
      let shard = decode_int s ~pos in
      let gen = decode_int s ~pos in
      let start_rec = decode_int s ~pos in
      let start_ops = decode_int s ~pos in
      let items = decode_int s ~pos in
      if shard < 0 || gen < 0 || start_rec < 0 || start_ops < 0 || items < 0
      then bad "SNAPSHOT with negative field";
      let last =
        match decode_byte s ~pos with
        | 0 -> false
        | 1 -> true
        | b -> bad "bad SNAPSHOT last byte %d" b
      in
      let n = decode_int s ~pos in
      if n < 0 || n > max_batch then bad "bad SNAPSHOT page count %d" n;
      let pages = List.init n (fun _ -> decode_string s ~pos) in
      Repl (R_snapshot { shard; gen; start_rec; start_ops; pages; last; items })
  | b when b = op_walchunk ->
      if depth > 0 then bad "replication frame inside BATCH";
      let shard = decode_int s ~pos in
      let gen = decode_int s ~pos in
      let from_rec = decode_int s ~pos in
      let p_recs = decode_int s ~pos in
      let p_bytes = decode_int s ~pos in
      if shard < 0 || gen < 0 || from_rec < 0 || p_recs < 0 || p_bytes < 0 then
        bad "WALCHUNK with negative field";
      let n = decode_int s ~pos in
      if n < 0 || n > max_batch then bad "bad WALCHUNK group count %d" n;
      let groups = List.init n (fun _ -> decode_string s ~pos) in
      Repl (R_walchunk { shard; gen; from_rec; groups; p_recs; p_bytes })
  | b when b = op_promote -> (
      if depth > 0 then bad "replication frame inside BATCH";
      match decode_byte s ~pos with
      | 0 -> Repl (R_promote { data_dir = None })
      | 1 -> Repl (R_promote { data_dir = Some (decode_string s ~pos) })
      | b -> bad "bad PROMOTE presence byte %d" b)
  | b when b = op_topology -> (
      if depth > 0 then bad "TOPOLOGY inside BATCH";
      match decode_byte s ~pos with
      | 0 -> Topology None
      | 1 -> Topology (Some (decode_string s ~pos))
      | b -> bad "bad TOPOLOGY presence byte %d" b)
  | b when b = op_migrate ->
      if depth > 0 then bad "MIGRATE inside BATCH";
      let m_lo = decode_string s ~pos in
      let m_hi =
        match decode_byte s ~pos with
        | 0 -> None
        | 1 -> Some (decode_string s ~pos)
        | b -> bad "bad MIGRATE presence byte %d" b
      in
      let m_dst = decode_int s ~pos in
      if m_dst < 0 then bad "MIGRATE with negative destination %d" m_dst;
      Migrate { m_lo; m_hi; m_dst }
  | b when b = op_ingest ->
      if depth > 0 then bad "INGEST inside BATCH";
      let n = decode_int s ~pos in
      if n < 0 then bad "INGEST with negative count %d" n;
      if n > max_batch then bad "INGEST count %d exceeds cap %d" n max_batch;
      Ingest
        (List.init n (fun _ ->
             let k = decode_string s ~pos in
             match decode_byte s ~pos with
             | 0 -> (k, None)
             | 1 -> (k, Some (decode_int s ~pos))
             | b -> bad "bad INGEST presence byte %d" b))
  | b -> bad "unknown opcode %d" b

let decode_req s =
  let pos = ref 0 in
  let r = decode_req_at s ~pos ~depth:0 in
  if !pos <> String.length s then
    bad "%d trailing bytes after request" (String.length s - !pos);
  r

(* Responses carry a shape tag so [decode_resp] needs no out-of-band
   request context beyond pairing replies with requests FIFO; the tag is
   also what lets a BATCH reply mix OK and ERR sub-replies. *)
let tag_value = 0
let tag_applied = 1
let tag_scanned = 2
let tag_batched = 3
let tag_stats = 4
let tag_repl = 5
let tag_topology = 6
let tag_scanned_to = 7

let encode_i64 buf (x : int64) =
  Buffer.add_int64_le buf x

let decode_i64 s ~pos =
  if !pos + 8 > String.length s then bad "truncated frame: missing int64";
  let v = String.get_int64_le s !pos in
  pos := !pos + 8;
  v

let rec encode_resp buf = function
  | Err msg ->
      add_byte buf st_err;
      C.encode_string buf msg
  | Err_wrong_shard epoch ->
      add_byte buf st_err_code;
      add_byte buf ec_wrong_shard;
      encode_i64 buf epoch
  | Err_read_only ->
      add_byte buf st_err_code;
      add_byte buf ec_read_only
  | ok ->
      add_byte buf st_ok;
      (match ok with
      | Value v ->
          add_byte buf tag_value;
          (match v with
          | None -> add_byte buf 0
          | Some x ->
              add_byte buf 1;
              C.encode_int buf x)
      | Applied b ->
          add_byte buf tag_applied;
          add_byte buf (if b then 1 else 0)
      | Scanned items ->
          add_byte buf tag_scanned;
          C.encode_int buf (List.length items);
          List.iter
            (fun (k, v) ->
              C.encode_string buf k;
              C.encode_int buf v)
            items
      | Batched rs ->
          add_byte buf tag_batched;
          C.encode_int buf (List.length rs);
          List.iter (encode_resp buf) rs
      | Stats_payload s ->
          add_byte buf tag_stats;
          C.encode_string buf s
      | Repl_ok n ->
          add_byte buf tag_repl;
          C.encode_int buf n
      | Topology_payload s ->
          add_byte buf tag_topology;
          C.encode_string buf s
      | Scanned_to (items, next) ->
          add_byte buf tag_scanned_to;
          C.encode_int buf (List.length items);
          List.iter
            (fun (k, v) ->
              C.encode_string buf k;
              C.encode_int buf v)
            items;
          (match next with
          | None -> add_byte buf 0
          | Some k ->
              add_byte buf 1;
              C.encode_string buf k)
      | Err _ | Err_wrong_shard _ | Err_read_only -> assert false)

(* BATCH reply prologue for callers that encode sub-replies
   incrementally (the server streams each slot as it evaluates). *)
let encode_batched_header body n =
  add_byte body st_ok;
  add_byte body tag_batched;
  C.encode_int body n

(* Streaming SCAN reply: [scan visit] appends each visited item straight
   into an encode buffer — no intermediate (key, value) list. The item
   count precedes the items on the wire, so the items land in a scratch
   buffer that is appended after the walk; the scratch holds encoded
   bytes, never per-item heap cells. One scratch per domain, reused
   across requests (a walk never starts another reply); cleared before
   each use, and shrunk back after a reply larger than [scratch_keep] so
   one [max_scan] reply does not pin its memory for the domain's
   lifetime. *)
let scratch_keep = 65_536

let release_scratch b =
  if Buffer.length b > scratch_keep then Buffer.reset b else Buffer.clear b

let scan_items = Domain.DLS.new_key (fun () -> Buffer.create 256)

let take_scan_items () =
  let items = Domain.DLS.get scan_items in
  Buffer.clear items;
  items

let encode_scanned_into body (scan : (string -> int -> unit) -> int) =
  let items = take_scan_items () in
  let count = ref 0 in
  ignore
    (scan (fun k v ->
         incr count;
         C.encode_string items k;
         C.encode_int items v)
      : int);
  add_byte body st_ok;
  add_byte body tag_scanned;
  C.encode_int body !count;
  Buffer.add_buffer body items;
  release_scratch items

(* Streaming variant of the cluster scan reply: same scratch-buffer
   scheme, but the continuation key is decided after the walk, from the
   emitted count and the last key visited. *)
let encode_scanned_to_into body (scan : (string -> int -> unit) -> int)
    (next_of : count:int -> last:string option -> string option) =
  let items = take_scan_items () in
  let count = ref 0 in
  let last = ref None in
  ignore
    (scan (fun k v ->
         incr count;
         last := Some k;
         C.encode_string items k;
         C.encode_int items v)
      : int);
  add_byte body st_ok;
  add_byte body tag_scanned_to;
  C.encode_int body !count;
  Buffer.add_buffer body items;
  release_scratch items;
  match next_of ~count:!count ~last:!last with
  | None -> add_byte body 0
  | Some k ->
      add_byte body 1;
      C.encode_string body k

let rec decode_resp_at s ~pos ~depth =
  match decode_byte s ~pos with
  | b when b = st_err -> Err (decode_string s ~pos)
  | b when b = st_ok -> (
      match decode_byte s ~pos with
      | t when t = tag_value -> (
          match decode_byte s ~pos with
          | 0 -> Value None
          | 1 -> Value (Some (decode_int s ~pos))
          | b -> bad "bad GET presence byte %d" b)
      | t when t = tag_applied -> (
          match decode_byte s ~pos with
          | 0 -> Applied false
          | 1 -> Applied true
          | b -> bad "bad PUT/DELETE bool byte %d" b)
      | t when t = tag_scanned ->
          let n = decode_int s ~pos in
          if n < 0 || n > max_scan then bad "bad SCAN reply count %d" n;
          Scanned
            (List.init n (fun _ ->
                 let k = decode_string s ~pos in
                 let v = decode_int s ~pos in
                 (k, v)))
      | t when t = tag_batched ->
          if depth > 0 then bad "nested BATCH reply";
          let n = decode_int s ~pos in
          if n < 0 || n > max_batch then bad "bad BATCH reply count %d" n;
          Batched
            (List.init n (fun _ -> decode_resp_at s ~pos ~depth:(depth + 1)))
      | t when t = tag_stats -> Stats_payload (decode_string s ~pos)
      | t when t = tag_repl -> Repl_ok (decode_int s ~pos)
      | t when t = tag_topology -> Topology_payload (decode_string s ~pos)
      | t when t = tag_scanned_to ->
          let n = decode_int s ~pos in
          if n < 0 || n > max_scan then bad "bad SCAN reply count %d" n;
          let items =
            List.init n (fun _ ->
                let k = decode_string s ~pos in
                let v = decode_int s ~pos in
                (k, v))
          in
          let next =
            match decode_byte s ~pos with
            | 0 -> None
            | 1 -> Some (decode_string s ~pos)
            | b -> bad "bad SCAN continuation byte %d" b
          in
          Scanned_to (items, next)
      | t -> bad "unknown response tag %d" t)
  | b when b = st_err_code -> (
      match decode_byte s ~pos with
      | c when c = ec_wrong_shard -> Err_wrong_shard (decode_i64 s ~pos)
      | c when c = ec_read_only -> Err_read_only
      | c -> bad "unknown error code %d" c)
  | b -> bad "unknown status byte %d" b

let decode_resp s =
  let pos = ref 0 in
  let r = decode_resp_at s ~pos ~depth:0 in
  if !pos <> String.length s then
    bad "%d trailing bytes after response" (String.length s - !pos);
  r

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let add_frame_len buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let add_frame buf payload =
  add_frame_len buf (String.length payload);
  Buffer.add_string buf payload

let add_frame_buf buf body =
  (* frame an already-encoded payload without stringifying it *)
  add_frame_len buf (Buffer.length body);
  Buffer.add_buffer buf body

let frame_req r =
  let body = Buffer.create 64 in
  encode_req body r;
  let out = Buffer.create (Buffer.length body + 4) in
  add_frame out (Buffer.contents body);
  Buffer.contents out

let frame_resp r =
  let body = Buffer.create 64 in
  encode_resp body r;
  let out = Buffer.create (Buffer.length body + 4) in
  add_frame out (Buffer.contents body);
  Buffer.contents out

(** Incremental frame extraction over a connection's accumulated input. *)
module Decoder = struct
  type t = { mutable data : Bytes.t; mutable len : int; mutable off : int }

  let initial_capacity = 4096

  (* shrink the grown buffer back once the connection has drained this
     far — otherwise one large frame pins its doubled buffer for the
     connection's whole lifetime *)
  let shrink_threshold = initial_capacity / 4

  let create () = { data = Bytes.create initial_capacity; len = 0; off = 0 }

  let buffered t = t.len - t.off
  let capacity t = Bytes.length t.data

  (* slide remaining bytes down and make room for [n] more *)
  let reserve t n =
    if t.off > 0 && (t.off = t.len || t.len + n > Bytes.length t.data) then begin
      Bytes.blit t.data t.off t.data 0 (t.len - t.off);
      t.len <- t.len - t.off;
      t.off <- 0
    end;
    if t.len + n > Bytes.length t.data then begin
      let cap = ref (Bytes.length t.data) in
      while t.len + n > !cap do
        cap := !cap * 2
      done;
      let data = Bytes.create !cap in
      Bytes.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let feed t src srclen =
    reserve t srclen;
    Bytes.blit src 0 t.data t.len srclen;
    t.len <- t.len + srclen

  (* [`Frame payload | `Need_more | `Framing msg]. After [`Framing] the
     stream is unrecoverable (no resync marker); callers should close. *)
  let next t =
    if buffered t < 4 then `Need_more
    else
      let b i = Char.code (Bytes.get t.data (t.off + i)) in
      let n = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
      if n > max_frame then
        `Framing (Printf.sprintf "frame length %d exceeds cap %d" n max_frame)
      else if buffered t < 4 + n then `Need_more
      else begin
        let payload = Bytes.sub_string t.data (t.off + 4) n in
        t.off <- t.off + 4 + n;
        if
          Bytes.length t.data > initial_capacity
          && buffered t <= shrink_threshold
        then begin
          let data = Bytes.create initial_capacity in
          Bytes.blit t.data t.off data 0 (buffered t);
          t.len <- buffered t;
          t.off <- 0;
          t.data <- data
        end;
        `Frame payload
      end
end
