(** Multi-domain TCP server for the Bw-Tree serving layer.

    One acceptor domain listens and hands accepted sockets to [workers]
    worker domains round-robin. Each worker runs a nonblocking
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

    {!stop} drains gracefully: the acceptor stops, workers answer every
    request already received, flush within [drain_timeout_s], close, and
    release their epoch slots. *)

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
  repl_handler : (tid:int -> Wire.repl_req -> Wire.resp) option;
      (** evaluates replication frames; [None] (every server that is not
          a follower) answers them with ERR. Runs on the worker that owns
          the shipper's connection — FIFO per connection is the stream's
          ordering guarantee. *)
  gate : Cluster_gate.t option;
      (** cluster membership: when set, every data request is validated
          against this node's partition table (wrong owner answers
          {!Wire.Err_wrong_shard}), scans clip to the owned range and
          carry a continuation, and TOPOLOGY frames read/install the
          table. [None] = a standalone server, gate-free fast paths. *)
  migrate_handler :
    (tid:int -> lo:string -> hi:string option -> dst:int -> Wire.resp) option;
      (** admits a MIGRATE frame (the engine lives above this library,
          next to the client it needs); [None] answers ERR. *)
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
    repl_handler = None;
    gate = None;
    migrate_handler = None;
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
  pending : Unix.file_descr Queue.t;  (** handoffs from the acceptor *)
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
  | Wire.Batch _ | Wire.Ingest _ -> Bw_obs.Lat_req_batch
  | Wire.Stats | Wire.Topology _ -> Bw_obs.Lat_req_stats
  | Wire.Repl _ | Wire.Migrate _ -> Bw_obs.Lat_req_repl

(* Evaluate one request, appending the encoded response body to [body].
   SCAN streams visits straight into the encode buffer — items never
   materialize as a list. Point ops compute their result before any byte
   is written, so a raising sub-request leaves [body] untouched and
   BATCH slot isolation only needs a scratch buffer around scans.

   With a cluster gate, point ops validate ownership first (raising
   {!Wire.Wrong_shard} on a miss), writes run through the gate's
   capture path, and scans clip to the owned range, answering
   [Scanned_to] with the exact continuation key. *)
let rec eval_into t ~tid body (req : Wire.req) : unit =
  let b = t.backend in
  let gated_write k op apply =
    match t.cfg.gate with
    | None -> apply ()
    | Some g ->
        Cluster_gate.write g ~tid (Bw_cluster.Slice.of_binary k) op apply
  in
  match req with
  | Wire.Get k ->
      (match t.cfg.gate with
      | None -> ()
      | Some g -> Cluster_gate.check_read g ~tid (Bw_cluster.Slice.of_binary k));
      Wire.encode_resp body (Wire.Value (b.read ~tid k))
  | Wire.Put (Wire.Insert, k, v) ->
      Wire.encode_resp body
        (Wire.Applied
           (gated_write k (Cluster_gate.Wop_put (k, v)) (fun () ->
                b.insert ~tid k v)))
  | Wire.Put (Wire.Update, k, v) ->
      Wire.encode_resp body
        (Wire.Applied
           (gated_write k (Cluster_gate.Wop_put (k, v)) (fun () ->
                b.update ~tid k v)))
  | Wire.Put (Wire.Upsert, k, v) ->
      Wire.encode_resp body
        (Wire.Applied
           (gated_write k (Cluster_gate.Wop_put (k, v)) (fun () ->
                upsert b ~tid k v)))
  | Wire.Delete k ->
      Wire.encode_resp body
        (Wire.Applied
           (gated_write k (Cluster_gate.Wop_remove k) (fun () ->
                b.remove ~tid k)))
  | Wire.Scan (k, n) -> (
      match t.cfg.gate with
      | None ->
          Wire.encode_scanned_into body (fun visit -> b.scan ~tid k ~n visit)
      | Some g ->
          let hi =
            Cluster_gate.scan_range g ~tid (Bw_cluster.Slice.of_binary k)
          in
          let in_range key =
            match hi with
            | None -> true
            | Some h ->
                Int64.unsigned_compare (Bw_cluster.Slice.of_binary key) h < 0
          in
          (* The clip filter is exact even over stale leftovers of a
             migrated-away range: owned keys all sort before the
             boundary, so if the budget is met the first [n] raw visits
             were all owned, and if it is not the owned range is
             exhausted — which is exactly what the continuation key
             tells the router. *)
          Wire.encode_scanned_to_into body
            (fun visit ->
              b.scan ~tid k ~n (fun key v ->
                  if in_range key then visit key v))
            (fun ~count ~last ->
              if n <= 0 then Some k
              else if count >= n then
                match last with Some lk -> Some (lk ^ "\000") | None -> None
              else Option.map Bw_cluster.Slice.floor_binary hi))
  | Wire.Batch reqs ->
      Wire.encode_batched_header body (List.length reqs);
      eval_batch t ~tid body reqs
  | Wire.Ingest items ->
      (* migration transfer: the engine applies extracted items and
         drained capture ops through the ordinary batch path (group
         commit on a durable backend), bypassing the ownership gate —
         the sender is moving keys this node does not own *yet*. *)
      let op_of (k, v) =
        match v with
        | Some v -> Index_iface.Bop_upsert (k, v)
        | None -> Index_iface.Bop_remove k
      in
      let ops = Bw_util.Arr.of_list (List.map op_of items) in
      if Array.length ops > 0 then
        ignore (Index_iface.exec_batch b ~tid ops : Index_iface.batch_result array);
      Wire.encode_resp body (Wire.Applied true)
  | Wire.Topology arg -> (
      match t.cfg.gate with
      | None -> Wire.encode_resp body (Wire.Err "not a cluster member")
      | Some g -> (
          match arg with
          | None ->
              Wire.encode_resp body
                (Wire.Topology_payload
                   (Bw_cluster.Table.encode (Cluster_gate.table g)))
          | Some enc ->
              let tbl =
                try Bw_cluster.Table.decode enc
                with Failure m -> raise (Wire.Malformed ("bad table: " ^ m))
              in
              ignore (Cluster_gate.install g tbl : bool);
              Wire.encode_resp body (Wire.Applied true)))
  | Wire.Migrate { m_lo; m_hi; m_dst } ->
      Wire.encode_resp body
        (match t.cfg.migrate_handler with
        | None -> Wire.Err "migration not supported on this node"
        | Some h -> h ~tid ~lo:m_lo ~hi:m_hi ~dst:m_dst)
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
  | Wire.Repl r ->
      Wire.encode_resp body
        (match t.cfg.repl_handler with
        | None -> Wire.Err "replication not enabled"
        | Some h -> h ~tid r)

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
    | exception Wire.Wrong_shard e ->
        Wire.encode_resp body (Wire.Err_wrong_shard e)
    | exception Read_only -> Wire.encode_resp body Wire.Err_read_only
  in
  let fast () =
      let op_of = function
        | Wire.Get k -> Some (Index_iface.Bop_read k)
        | Wire.Put (Wire.Insert, k, v) -> Some (Index_iface.Bop_insert (k, v))
        | Wire.Put (Wire.Update, k, v) -> Some (Index_iface.Bop_update (k, v))
        | Wire.Put (Wire.Upsert, k, v) -> Some (Index_iface.Bop_upsert (k, v))
        | Wire.Delete k -> Some (Index_iface.Bop_remove k)
        | Wire.Scan _ | Wire.Batch _ | Wire.Stats | Wire.Repl _
        | Wire.Topology _ | Wire.Migrate _ | Wire.Ingest _ ->
            None
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
  in
  match (b.batch, t.cfg.gate) with
  | None, _ -> List.iter per_slot reqs
  | Some _, None -> fast ()
  | Some _, Some g ->
      (* The amortized path bypasses per-op gating, so it may run only
         when no migration is active (nothing to capture) and every
         point-op key is owned — validated, then executed, as one
         published-writer section so a migration starting mid-frame
         waits for the whole batch before extracting. Otherwise each
         slot evaluates through the gate individually (redirects and
         captures land per slot). *)
      Cluster_gate.with_pub g (fun () ->
          let tbl = Cluster_gate.table g in
          let owned r =
            match r with
            | Wire.Get k | Wire.Put (_, k, _) | Wire.Delete k ->
                Bw_cluster.Table.owner_binary tbl k = Cluster_gate.self g
            | Wire.Scan _ | Wire.Batch _ | Wire.Stats | Wire.Repl _
            | Wire.Topology _ | Wire.Migrate _ | Wire.Ingest _ ->
                true (* per-slot anyway, or gated inside eval_into *)
          in
          if Cluster_gate.migration_active g || not (List.for_all owned reqs)
          then List.iter per_slot reqs
          else fast ())

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
      | exception Wire.Wrong_shard e ->
          (* expected redirect, not a protocol error: the gate already
             counted it, and the client retries after a table refetch *)
          Buffer.add_string out (Wire.frame_resp (Wire.Err_wrong_shard e));
          false
      | exception Read_only ->
          Buffer.add_string out (Wire.frame_resp Wire.Err_read_only);
          false
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

let worker_loop t (w : worker) =
  let tid = w.w_index in
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
    let wset = List.map (fun c -> c.fd) writable in
    let rs, ws, _ =
      try Unix.select rset wset [] 0.05
      with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
    in
    if List.mem w.wake_r rs then drain_wake w wake_scratch;
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
(* Acceptor                                                            *)
(* ------------------------------------------------------------------ *)

let acceptor_loop t =
  let next = ref 0 in
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.listen_fd ] [] [] 0.05 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
            let w = t.workers.(!next mod Array.length t.workers) in
            incr next;
            Atomic.incr t.active_conns;
            Mutex.lock w.pending_lock;
            Queue.add fd w.pending;
            Mutex.unlock w.pending_lock;
            (try ignore (Unix.write_substring w.wake_w "x" 0 1)
             with Unix.Unix_error _ -> ())
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            ()
        | exception Unix.Unix_error (EBADF, _, _) ->
            (* listen socket closed under us during stop *)
            ())
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | exception Unix.Unix_error (EBADF, _, _) -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) (backend : Backend.t) : t =
  if config.workers < 1 then invalid_arg "Server.start: workers < 1";
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.inet_addr_of_string config.host in
  (try Unix.bind listen_fd (Unix.ADDR_INET (addr, config.port))
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd 128;
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
  backend.start_aux ();
  let worker_domains =
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) workers)
  in
  let acceptor = Domain.spawn (fun () -> acceptor_loop t) in
  t.domains <- acceptor :: worker_domains;
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
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Array.iter
      (fun w ->
        (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
        try Unix.close w.wake_w with Unix.Unix_error _ -> ())
      t.workers;
    t.backend.stop_aux ()
  end
