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

type req =
  | Get of string
  | Put of put_mode * string * int
  | Delete of string
  | Scan of string * int  (** start key (binary), item budget *)
  | Batch of req list  (** point ops and scans only — no nesting *)
  | Stats

type resp =
  | Value of int option  (** GET *)
  | Applied of bool  (** PUT / DELETE *)
  | Scanned of (string * int) list  (** SCAN: binary key, value *)
  | Batched of resp list  (** BATCH: one reply per sub-request, in order *)
  | Stats_payload of string  (** STATS: JSON metrics snapshot *)
  | Err of string

(* opcode bytes *)
let op_get = 1
let op_put = 2
let op_delete = 3
let op_scan = 4
let op_batch = 5
let op_stats = 6

(* status bytes *)
let st_ok = 0
let st_err = 1

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

let rec encode_resp buf = function
  | Err msg ->
      add_byte buf st_err;
      C.encode_string buf msg
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
      | Err _ -> assert false)

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

let encode_scanned_into body (scan : (string -> int -> unit) -> int) =
  let items = Domain.DLS.get scan_items in
  Buffer.clear items;
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
      | t -> bad "unknown response tag %d" t)
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
