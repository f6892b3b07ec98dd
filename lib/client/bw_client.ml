(** Blocking, pipelining-aware client for the {!Bw_server} wire protocol.

    One [t] wraps one TCP connection and must be driven from one domain
    at a time (the loadgen gives each worker domain its own client).

    Two usage styles:

    - Synchronous: {!get} / {!put} / {!delete} / {!scan} / {!stats} each
      send one request and wait for its reply.
    - Pipelined: {!send} queues requests (flushed automatically in
      batches), {!recv} takes replies in FIFO order. Keeping [depth]
      requests in flight amortizes the network round trip — the loadgen's
      [--pipeline] knob is exactly this.

    Protocol violations from the server raise {!Protocol_error};
    an unexpected close raises {!Server_closed}. *)

module Wire = Bw_server.Wire

exception Server_closed
exception Protocol_error of string

exception Wrong_shard of int64
(** The server does not own the requested key under its partition table
    (whose epoch is carried here): the caller's routing table is stale.
    Refetch the table ({!topology}) and retry — {!Bw_router} does. *)

exception Read_only
(** The key's range is sealed for the final instants of an outgoing
    migration; retrying shortly yields either success or
    {!Wrong_shard} with the post-flip table. *)

type t = {
  fd : Unix.file_descr;
  out : Buffer.t;  (** encoded-but-unsent request frames *)
  dec : Wire.Decoder.t;
  inflight : Wire.req Queue.t;
  scratch : Bytes.t;
  wbuf : Bytes.t;  (** socket-write scratch: [out] is blitted here *)
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    out = Buffer.create 4096;
    dec = Wire.Decoder.create ();
    inflight = Queue.create ();
    scratch = Bytes.create 65_536;
    wbuf = Bytes.create 65_536;
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let inflight t = Queue.length t.inflight

(* Write out every queued byte, a [wbuf]-sized chunk at a time, without
   copying [out] into a fresh string. *)
let flush t =
  let n = Buffer.length t.out in
  let off = ref 0 in
  while !off < n do
    let chunk = min (n - !off) (Bytes.length t.wbuf) in
    Buffer.blit t.out !off t.wbuf 0 chunk;
    match Unix.write t.fd t.wbuf 0 chunk with
    | 0 -> raise Server_closed
    | w -> off := !off + w
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        raise Server_closed
  done;
  Buffer.clear t.out

let send t req =
  Buffer.add_string t.out (Wire.frame_req req);
  Queue.add req t.inflight;
  (* don't let an unflushed tail grow without bound under deep pipelines *)
  if Buffer.length t.out >= 65_536 then flush t

let rec recv t : Wire.resp =
  if Queue.is_empty t.inflight then
    invalid_arg "Bw_client.recv: no request in flight";
  match Wire.Decoder.next t.dec with
  | `Frame payload -> (
      ignore (Queue.pop t.inflight);
      try Wire.decode_resp payload
      with Wire.Malformed m -> raise (Protocol_error m))
  | `Framing m -> raise (Protocol_error m)
  | `Need_more -> (
      if Buffer.length t.out > 0 then flush t;
      match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
      | 0 -> raise Server_closed
      | n ->
          Wire.Decoder.feed t.dec t.scratch n;
          recv t
      | exception Unix.Unix_error (EINTR, _, _) -> recv t
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) ->
          raise Server_closed)

let request t req =
  send t req;
  flush t;
  (* drain everything ahead of us too: sync calls interleaved with
     pipelined ones still pair FIFO *)
  let rec go () =
    let r = recv t in
    if Queue.is_empty t.inflight then r else go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Typed synchronous helpers                                           *)
(* ------------------------------------------------------------------ *)

let err = function
  | Wire.Err m -> raise (Protocol_error ("server error: " ^ m))
  | Wire.Err_wrong_shard epoch -> raise (Wrong_shard epoch)
  | Wire.Err_read_only -> raise Read_only
  | r -> raise (Protocol_error ("unexpected reply shape: " ^
                                (match r with
                                 | Wire.Value _ -> "value"
                                 | Wire.Applied _ -> "applied"
                                 | Wire.Scanned _ -> "scanned"
                                 | Wire.Scanned_to _ -> "scanned_to"
                                 | Wire.Batched _ -> "batched"
                                 | Wire.Stats_payload _ -> "stats"
                                 | Wire.Repl_ok _ -> "repl_ok"
                                 | Wire.Topology_payload _ -> "topology"
                                 | Wire.Err _ -> "err"
                                 | Wire.Err_wrong_shard _ -> "wrong_shard"
                                 | Wire.Err_read_only -> "read_only")))

let get t key =
  match request t (Wire.Get key) with Wire.Value v -> v | r -> err r

let put t ?(mode = Wire.Upsert) key value =
  match request t (Wire.Put (mode, key, value)) with
  | Wire.Applied b -> b
  | r -> err r

let delete t key =
  match request t (Wire.Delete key) with Wire.Applied b -> b | r -> err r

let scan t key ~n =
  match request t (Wire.Scan (key, n)) with
  | Wire.Scanned items -> items
  | Wire.Scanned_to (items, _) -> items
  | r -> err r

(* A cluster member answers SCAN with its continuation point: the exact
   key where its ownership (or the budget) ran out, [None] at the end of
   the key space. A plain server's [Scanned] means "budget exhausted or
   end of space" — recover the same contract from the item count. *)
let scan_to t key ~n =
  match request t (Wire.Scan (key, n)) with
  | Wire.Scanned_to (items, next) -> (items, next)
  | Wire.Scanned items ->
      let next =
        if n > 0 && List.length items >= n then
          match List.rev items with
          | (last, _) :: _ -> Some (last ^ "\000")
          | [] -> None
        else None
      in
      (items, next)
  | r -> err r

let batch t reqs =
  match request t (Wire.Batch reqs) with
  | Wire.Batched rs -> rs
  | r -> err r

let stats t =
  match request t Wire.Stats with
  | Wire.Stats_payload s -> s
  | r -> err r

(* Replication frames: the WAL shipper is just a client that sends
   [Wire.Repl] requests; each returns the standby's ack. *)
let repl t r =
  match request t (Wire.Repl r) with Wire.Repl_ok n -> n | r -> err r

let promote ?data_dir t = repl t (Wire.R_promote { data_dir })

(* Cluster frames (members only — a plain server answers [Err]). *)

let topology t =
  match request t (Wire.Topology None) with
  | Wire.Topology_payload s -> s
  | r -> err r

let offer_topology t encoded =
  match request t (Wire.Topology (Some encoded)) with
  | Wire.Applied b -> b
  | r -> err r

let migrate t ~lo ~hi ~dst =
  match request t (Wire.Migrate { m_lo = lo; m_hi = hi; m_dst = dst }) with
  | Wire.Applied b -> b
  | r -> err r

let ingest t items =
  match request t (Wire.Ingest items) with
  | Wire.Applied b -> b
  | r -> err r

(* Integer-key conveniences (the common case: int-keyed trees behind the
   wire's binary key encoding). *)
module Int_key = struct
  let enc = Bw_util.Key_codec.of_int

  let get t k = get t (enc k)
  let put t ?mode k v = put t ?mode (enc k) v
  let delete t k = delete t (enc k)

  let scan t k ~n =
    List.map (fun (bk, v) -> (Bw_util.Key_codec.to_int bk, v)) (scan t (enc k) ~n)
end

(* ------------------------------------------------------------------ *)
(* Replica-aware read fan-out                                          *)
(* ------------------------------------------------------------------ *)

(** One primary plus any number of following replicas. Writes (and any
    BATCH containing a write) go to the primary; reads — GET, SCAN,
    STATS, read-only BATCHes — round-robin across the replicas, falling
    back to the primary when there are none. A follower applies the WAL
    stream asynchronously, so replica reads are eventually consistent:
    bounded-staleness, monotone per replica connection (the stream
    applies in commit order), but a read fanned out right after an
    acknowledged write may miss it. Callers needing read-your-writes go
    to the primary directly. *)
module Fanout = struct
  type fanout = {
    primary : t;
    replicas : t array;
    mutable next : int;  (* round-robin position *)
  }

  let make ~primary ~replicas = { primary; replicas; next = 0 }

  let connect ?host ~port ~replica_ports () =
    let primary = connect ?host ~port () in
    let replicas =
      try Array.of_list (List.map (fun p -> connect ?host ~port:p ()) replica_ports)
      with e ->
        close primary;
        raise e
    in
    make ~primary ~replicas

  let close_all f =
    close f.primary;
    Array.iter close f.replicas

  let reader f =
    if Array.length f.replicas = 0 then f.primary
    else begin
      let r = f.replicas.(f.next mod Array.length f.replicas) in
      f.next <- f.next + 1;
      r
    end

  let rec is_write = function
    | Wire.Put _ | Wire.Delete _ | Wire.Repl _ | Wire.Topology _
    | Wire.Migrate _ | Wire.Ingest _ ->
        true
    | Wire.Batch reqs -> List.exists is_write reqs
    | Wire.Get _ | Wire.Scan _ | Wire.Stats -> false

  let get f key = get (reader f) key
  let scan f key ~n = scan (reader f) key ~n
  let stats f = stats (reader f)
  let put f ?mode key value = put f.primary ?mode key value
  let delete f key = delete f.primary key

  let batch f reqs =
    batch (if List.exists is_write reqs then f.primary else reader f) reqs

  (* Route one request by kind — for callers holding raw [Wire.req]s. *)
  let request f req = request (if is_write req then f.primary else reader f) req
end
