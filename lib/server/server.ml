(** Multi-domain TCP server for the Bw-Tree serving layer.

    [workers] worker domains, and no other: worker 0 also selects on the
    nonblocking listening socket and hands accepted sockets to the
    workers round-robin (itself included). A separate acceptor domain
    would only sleep in [select], yet every minor collection stops all
    domains and waits for it too. Each worker runs a nonblocking
    [Unix.select] event loop over its own connection set — connection
    state is shared-nothing between workers; the only shared object is
    the index itself, reached through its lock-free API with the worker's
    domain index as [tid].

    Per connection the worker keeps a frame decoder (bounded by
    {!Wire.max_frame}) and an output buffer. Backpressure is hard: once a
    connection's queued output exceeds [wbuf_cap] the worker stops
    selecting it for read, so a client that pipelines faster than it
    drains responses stalls instead of ballooning server memory.

    Error isolation: a payload-level malformed frame gets an [Err] reply
    (and, with [close_on_malformed], a drain-and-close of that one
    connection); a framing-level violation (oversized length prefix)
    always closes the connection since the stream cannot be resynced.
    Other connections are unaffected either way.

    {!stop} drains gracefully: worker 0 stops accepting, workers answer
    every request already received, flush within [drain_timeout_s],
    close, and release their epoch slots. *)

open Index_iface

type config = {
  host : string;
  port : int;  (** 0 picks an ephemeral port; see {!port}. *)
  workers : int;
  wbuf_cap : int;  (** per-connection queued-output cap, bytes *)
  close_on_malformed : bool;
  drain_timeout_s : float;
  obs : Bw_obs.sink;
  stats_json : (unit -> string) option;
      (** what a STATS frame answers; [None] snapshots [obs]. A sharded
          server plugs in the merged-plus-per-shard snapshot here. *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 2;
    wbuf_cap = 8 * 1024 * 1024;
    close_on_malformed = false;
    drain_timeout_s = 5.0;
    obs = Bw_obs.Null;
    stats_json = None;
  }

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  out : Buffer.t;
  mutable out_off : int;  (** bytes of [out] already written to the fd *)
  mutable closing : bool;  (** flush pending output, then close *)
}

type worker = {
  w_index : int;
  mutable conns : conn list;
  pending : Unix.file_descr Queue.t;  (** handoffs from worker 0's accepts *)
  pending_lock : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  queued_bytes : int Atomic.t;  (** gauge input, updated once per loop *)
  body : Buffer.t;  (** reply-body scratch, reused across requests *)
  wbuf : Bytes.t;  (** socket-write scratch: output is blitted here *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  backend : Backend.t;
  stopping : bool Atomic.t;
  active_conns : int Atomic.t;
  workers : worker array;
  mutable domains : unit Domain.t list;
}

let port t = t.bound_port

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let rec upsert (b : Backend.t) ~tid k v =
  if b.update ~tid k v then true
  else if b.insert ~tid k v then true
  else upsert b ~tid k v (* lost an insert/delete race; retry *)

let series_of_req : Wire.req -> Bw_obs.series = function
  | Wire.Get _ -> Bw_obs.Lat_req_get
  | Wire.Put _ -> Bw_obs.Lat_req_put
  | Wire.Delete _ -> Bw_obs.Lat_req_delete
  | Wire.Scan _ -> Bw_obs.Lat_req_scan
  | Wire.Batch _ -> Bw_obs.Lat_req_batch
  | Wire.Stats -> Bw_obs.Lat_req_stats

(* Evaluate one request, appending the encoded response body to [body].
   SCAN streams visits straight into the encode buffer — items never
   materialize as a list. Point ops compute their result before any byte
   is written, so a raising sub-request leaves [body] untouched and
   BATCH slot isolation only needs a scratch buffer around scans. *)
let rec eval_into t ~tid body (req : Wire.req) : unit =
  let b = t.backend in
  match req with
  | Wire.Get k -> Wire.encode_resp body (Wire.Value (b.read ~tid k))
  | Wire.Put (Wire.Insert, k, v) ->
      Wire.encode_resp body (Wire.Applied (b.insert ~tid k v))
  | Wire.Put (Wire.Update, k, v) ->
      Wire.encode_resp body (Wire.Applied (b.update ~tid k v))
  | Wire.Put (Wire.Upsert, k, v) ->
      Wire.encode_resp body (Wire.Applied (upsert b ~tid k v))
  | Wire.Delete k -> Wire.encode_resp body (Wire.Applied (b.remove ~tid k))
  | Wire.Scan (k, n) ->
      Wire.encode_scanned_into body (fun visit -> b.scan ~tid k ~n visit)
  | Wire.Batch reqs ->
      Wire.encode_batched_header body (List.length reqs);
      eval_batch t ~tid body reqs
  | Wire.Stats ->
      let json =
        match t.cfg.stats_json with
        | Some f -> f ()
        | None -> (
            match t.cfg.obs with
            | Bw_obs.Null -> "{}"
            | Bw_obs.To reg ->
                Bw_obs.snapshot_to_string (Bw_obs.snapshot reg))
      in
      Wire.encode_resp body (Wire.Stats_payload json)

(* A decoded BATCH frame: point ops run through the backend's amortized
   batch path in one call (undecodable keys answer ERR in their slot via
   [Bres_bad_key]); scans still evaluate per slot, with the pre-batch
   isolation. Responses are emitted in wire order either way. The point
   ops linearize before the batch's scans — sub-requests of one BATCH
   carry no ordering promise across kinds (they never did: slots are
   independent operations that happen to share a frame). Backends
   without a batch path keep the per-slot evaluation unchanged. *)
and eval_batch t ~tid body (reqs : Wire.req list) : unit =
  let b = t.backend in
  let per_slot r =
    (* sub-request failures are isolated to their slot *)
    let slot = Buffer.create 64 in
    match eval_into t ~tid slot r with
    | () -> Buffer.add_buffer body slot
    | exception Wire.Malformed m -> Wire.encode_resp body (Wire.Err m)
    | exception Bad_key _ -> Wire.encode_resp body (Wire.Err "undecodable key")
  in
  match b.batch with
  | None -> List.iter per_slot reqs
  | Some _ ->
      let op_of = function
        | Wire.Get k -> Some (Index_iface.Bop_read k)
        | Wire.Put (Wire.Insert, k, v) -> Some (Index_iface.Bop_insert (k, v))
        | Wire.Put (Wire.Update, k, v) -> Some (Index_iface.Bop_update (k, v))
        | Wire.Put (Wire.Upsert, k, v) -> Some (Index_iface.Bop_upsert (k, v))
        | Wire.Delete k -> Some (Index_iface.Bop_remove k)
        | Wire.Scan _ | Wire.Batch _ | Wire.Stats -> None
      in
      (* Bw_util.Arr: batch frames carry up to [Wire.max_batch] slots,
         and a stdlib of_list that size forces a minor GC per frame. *)
      let point = Bw_util.Arr.of_list (List.filter_map op_of reqs) in
      let results =
        if Array.length point = 0 then [||]
        else Index_iface.exec_batch b ~tid point
      in
      let next = ref 0 in
      List.iter
        (fun r ->
          match op_of r with
          | Some _ ->
              let res = results.(!next) in
              incr next;
              (match res with
              | Index_iface.Bres_applied ok ->
                  Wire.encode_resp body (Wire.Applied ok)
              | Index_iface.Bres_value v ->
                  Wire.encode_resp body (Wire.Value v)
              | Index_iface.Bres_bad_key ->
                  Wire.encode_resp body (Wire.Err "undecodable key"))
          | None -> per_slot r)
        reqs

(* Decode + evaluate one frame, appending the framed reply to [out];
   never raises. Returns whether the connection must be put into
   drain-and-close. [body] is the worker's reply scratch: cleared here
   before use, and shrunk back after a large reply
   ({!Wire.release_scratch}). *)
let handle_frame t ~tid ~body out payload : bool =
  let obs = t.cfg.obs in
  Bw_obs.incr obs ~tid Bw_obs.C_net_requests;
  let err m close =
    Bw_obs.incr obs ~tid Bw_obs.C_net_errors;
    Buffer.add_string out (Wire.frame_resp (Wire.Err m));
    close
  in
  match Wire.decode_req payload with
  | exception Wire.Malformed m ->
      err ("malformed request: " ^ m) t.cfg.close_on_malformed
  | req -> (
      let t0 = if Bw_obs.enabled obs then Bw_obs.now_ns () else 0 in
      Buffer.clear body;
      match eval_into t ~tid body req with
      | () ->
          if Bw_obs.enabled obs then
            Bw_obs.observe obs ~tid (series_of_req req)
              (Bw_obs.now_ns () - t0);
          Wire.add_frame_buf out body;
          Wire.release_scratch body;
          false
      | exception Wire.Malformed m -> err m t.cfg.close_on_malformed
      | exception Bad_key _ ->
          err "undecodable key" t.cfg.close_on_malformed
      | exception exn ->
          (* an operation failure must not take the worker down *)
          err ("internal error: " ^ Printexc.to_string exn) false)

(* ------------------------------------------------------------------ *)
(* Worker event loop                                                   *)
(* ------------------------------------------------------------------ *)

let close_conn t (c : conn) =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  Atomic.decr t.active_conns

let conn_pending_out c = Buffer.length c.out - c.out_off

(* Flush as much queued output as the socket accepts. Returns [false] if
   the connection died mid-write. Each chunk is blitted into the
   worker's write scratch rather than copied out into a fresh string. *)
let flush_conn t (w : worker) (c : conn) =
  let tid = w.w_index in
  let rec go () =
    let pending = conn_pending_out c in
    if pending = 0 then true
    else
      let chunk = min pending (Bytes.length w.wbuf) in
      Buffer.blit c.out c.out_off w.wbuf 0 chunk;
      match Unix.write c.fd w.wbuf 0 chunk with
      | 0 -> true
      | n ->
          c.out_off <- c.out_off + n;
          Bw_obs.add t.cfg.obs ~tid Bw_obs.C_net_bytes_out n;
          if c.out_off = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.out_off <- 0;
            true
          end
          else go ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> true
      | exception Unix.Unix_error (EINTR, _, _) -> go ()
      | exception Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _) ->
          false
  in
  go ()

(* Drain every complete frame currently buffered on [c]. *)
let process_frames t (w : worker) (c : conn) =
  let tid = w.w_index in
  let continue = ref true in
  while !continue && not c.closing do
    match Wire.Decoder.next c.dec with
    | `Need_more -> continue := false
    | `Frame payload ->
        if handle_frame t ~tid ~body:w.body c.out payload then
          c.closing <- true
    | `Framing m ->
        Bw_obs.incr t.cfg.obs ~tid Bw_obs.C_net_errors;
        Buffer.add_string c.out
          (Wire.frame_resp (Wire.Err ("framing error: " ^ m)));
        c.closing <- true
  done

let read_conn t (w : worker) (c : conn) scratch =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 ->
      (* peer finished sending; answer what's buffered, then close *)
      process_frames t w c;
      c.closing <- true;
      true
  | n ->
      Bw_obs.add t.cfg.obs ~tid:w.w_index Bw_obs.C_net_bytes_in n;
      Wire.Decoder.feed c.dec scratch n;
      process_frames t w c;
      true
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> true
  | exception Unix.Unix_error ((ECONNRESET | EPIPE | EBADF), _, _) -> false

let drain_wake w scratch =
  match Unix.read w.wake_r scratch 0 (Bytes.length scratch) with
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let adopt_pending t w =
  Mutex.lock w.pending_lock;
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] w.pending in
  Queue.clear w.pending;
  Mutex.unlock w.pending_lock;
  List.iter
    (fun fd ->
      (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      w.conns <-
        {
          fd;
          dec = Wire.Decoder.create ();
          out = Buffer.create 4096;
          out_off = 0;
          closing = false;
        }
        :: w.conns)
    fds;
  ignore t

(* Hand an accepted socket to worker [w]: queue it and wake [w]'s select. *)
let hand_off t (w : worker) fd =
  Atomic.incr t.active_conns;
  Mutex.lock w.pending_lock;
  Queue.add fd w.pending;
  Mutex.unlock w.pending_lock;
  try ignore (Unix.write_substring w.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* Worker 0's accept step: take every queued connection off the
   nonblocking listening socket, round-robin over the workers. *)
let accept_all t next =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        hand_off t t.workers.(!next mod Array.length t.workers) fd;
        incr next;
        go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ ->
        (* EAGAIN: the queue is empty. Anything else (an aborted
           connection, out of fds) must not take the worker down: leave
           it to the next round. *)
        ()
  in
  go ()

let worker_loop t (w : worker) =
  let tid = w.w_index in
  let accepts = w.w_index = 0 in
  let next = ref 0 in
  let scratch = Bytes.create 65_536 in
  let wake_scratch = Bytes.create 64 in
  let stop_deadline = ref 0.0 in
  let running = ref true in
  while !running do
    let stopping = Atomic.get t.stopping in
    if stopping && !stop_deadline = 0.0 then
      stop_deadline := Unix.gettimeofday () +. t.cfg.drain_timeout_s;
    adopt_pending t w;
    (* when stopping: no new reads; answer what's decoded, flush, close *)
    if stopping then
      List.iter
        (fun c ->
          process_frames t w c;
          c.closing <- true)
        w.conns;
    let readable =
      if stopping then []
      else
        List.filter
          (fun c -> (not c.closing) && conn_pending_out c < t.cfg.wbuf_cap)
          w.conns
    in
    let writable = List.filter (fun c -> conn_pending_out c > 0) w.conns in
    let rset = w.wake_r :: List.map (fun c -> c.fd) readable in
    let rset = if accepts && not stopping then t.listen_fd :: rset else rset in
    let wset = List.map (fun c -> c.fd) writable in
    let rs, ws, _ =
      try Unix.select rset wset [] 0.05
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if List.mem w.wake_r rs then drain_wake w wake_scratch;
    if accepts && List.mem t.listen_fd rs then accept_all t next;
    let dead = ref [] in
    List.iter
      (fun c ->
        if List.mem c.fd ws then
          if not (flush_conn t w c) then dead := c :: !dead)
      writable;
    List.iter
      (fun c ->
        if List.mem c.fd rs && not (List.memq c !dead) then
          if not (read_conn t w c scratch) then dead := c :: !dead)
      readable;
    (* opportunistic flush of freshly produced output *)
    List.iter
      (fun c ->
        if (not (List.memq c !dead)) && conn_pending_out c > 0 then
          if not (flush_conn t w c) then dead := c :: !dead)
      w.conns;
    (* reap: dead connections, and closing ones that finished flushing *)
    let keep, drop =
      List.partition
        (fun c ->
          (not (List.memq c !dead))
          && not (c.closing && conn_pending_out c = 0))
        w.conns
    in
    List.iter (close_conn t) drop;
    w.conns <- keep;
    Atomic.set w.queued_bytes
      (List.fold_left (fun acc c -> acc + conn_pending_out c) 0 w.conns);
    if stopping then
      if w.conns = [] || Unix.gettimeofday () > !stop_deadline then begin
        List.iter (close_conn t) w.conns;
        w.conns <- [];
        Atomic.set w.queued_bytes 0;
        running := false
      end
  done;
  t.backend.thread_done ~tid

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) (backend : Backend.t) : t =
  if config.workers < 1 then invalid_arg "Server.start: workers < 1";
  (* parsed before any fd exists, so a bad host leaks nothing *)
  let addr =
    try Unix.inet_addr_of_string config.host
    with Failure _ ->
      invalid_arg
        (Printf.sprintf "Server.start: host %S is not a numeric address"
           config.host)
  in
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port));
     Unix.listen listen_fd 128;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let workers =
    Array.init config.workers (fun i ->
        let wake_r, wake_w = Unix.pipe () in
        Unix.set_nonblock wake_r;
        {
          w_index = i;
          conns = [];
          pending = Queue.create ();
          pending_lock = Mutex.create ();
          wake_r;
          wake_w;
          queued_bytes = Atomic.make 0;
          body = Buffer.create 64;
          wbuf = Bytes.create 65_536;
        })
  in
  let t =
    {
      cfg = config;
      listen_fd;
      bound_port;
      backend;
      stopping = Atomic.make false;
      active_conns = Atomic.make 0;
      workers;
      domains = [];
    }
  in
  Bw_obs.register_gauge config.obs Bw_obs.G_net_active_conns (fun () ->
      Atomic.get t.active_conns);
  Bw_obs.register_gauge config.obs Bw_obs.G_net_queued_bytes (fun () ->
      Array.fold_left (fun acc w -> acc + Atomic.get w.queued_bytes) 0 workers);
  (* process-wide: every collection stops all domains, so two snapshots
     tell how many stop-the-world pauses the window between them had *)
  Bw_obs.register_gauge config.obs Bw_obs.G_gc_minor_collections (fun () ->
      (Gc.quick_stat ()).minor_collections);
  Bw_obs.register_gauge config.obs Bw_obs.G_gc_major_collections (fun () ->
      (Gc.quick_stat ()).major_collections);
  (* the epoch advancer is a systhread of this domain: {!stop} must run
     before this domain returns *)
  backend.start_aux ();
  t.domains <-
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) workers);
  t

let stop (t : t) =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake every worker so the drain starts immediately *)
    Array.iter
      (fun w ->
        try ignore (Unix.write_substring w.wake_w "x" 0 1)
        with Unix.Unix_error _ -> ())
      t.workers;
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* a socket accepted as the drain began may reach a worker that had
       already exited *)
    Array.iter
      (fun w ->
        Queue.iter
          (fun fd ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Atomic.decr t.active_conns)
          w.pending;
        Queue.clear w.pending)
      t.workers;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Array.iter
      (fun w ->
        (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
        try Unix.close w.wake_w with Unix.Unix_error _ -> ())
      t.workers;
    t.backend.stop_aux ()
  end
