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
  (* parsed before the socket exists, so a bad host leaks nothing *)
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      invalid_arg
        (Printf.sprintf "Bw_client.connect: host %S is not a numeric address"
           host)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (addr, port));
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
  | r -> raise (Protocol_error ("unexpected reply shape: " ^
                                (match r with
                                 | Wire.Value _ -> "value"
                                 | Wire.Applied _ -> "applied"
                                 | Wire.Scanned _ -> "scanned"
                                 | Wire.Batched _ -> "batched"
                                 | Wire.Stats_payload _ -> "stats"
                                 | Wire.Err _ -> "err")))

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
  | r -> err r

let batch t reqs =
  match request t (Wire.Batch reqs) with
  | Wire.Batched rs -> rs
  | r -> err r

let stats t =
  match request t Wire.Stats with
  | Wire.Stats_payload s -> s
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
