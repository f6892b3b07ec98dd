(** Append-only delta write-ahead log with group commit.

    Between checkpoints, every applied write is recorded here before it
    is acknowledged — the WAL append (plus its fsync, when enabled) *is*
    the commit point. One {!Make.commit} call writes one log record
    covering a whole batch of operations and issues at most one fsync,
    so the server's BATCH frame and [execute_batch] amortize durability
    the same way they amortize tree descents: the fsync cost is paid per
    group, not per op (the "fast, durable updates" recipe the elimination
    (a,b)-tree paper applies to batched leaf updates).

    Record payload: op count, then per op a tag byte ('i'/'u'/'p'/'r')
    followed by the codec-encoded key (and value, except removes). The
    record framing, CRC and torn-tail recovery all come from {!Log}: a
    crash can only lose a suffix of whole commit groups, never tear one.

    Replay positions ([pos], [replay ~from]) count *ops*, not records —
    group sizes vary run to run, op counts do not. *)

module Make (KC : Codec.CODEC) (VC : Codec.CODEC) = struct
  type op =
    | W_insert of KC.t * VC.t
    | W_update of KC.t * VC.t
    | W_upsert of KC.t * VC.t
    | W_remove of KC.t

  type t = {
    log : Log.t;
    mutable nops : int;  (* ops committed, recovered ones included *)
    mu : Mutex.t;  (* serializes group commits *)
    do_fsync : bool;
    obs : Bw_obs.sink;
  }

  let encode_ops ops =
    let buf = Buffer.create 256 in
    Codec.encode_int buf (List.length ops);
    List.iter
      (fun op ->
        match op with
        | W_insert (k, v) ->
            Buffer.add_char buf 'i';
            KC.encode buf k;
            VC.encode buf v
        | W_update (k, v) ->
            Buffer.add_char buf 'u';
            KC.encode buf k;
            VC.encode buf v
        | W_upsert (k, v) ->
            Buffer.add_char buf 'p';
            KC.encode buf k;
            VC.encode buf v
        | W_remove k ->
            Buffer.add_char buf 'r';
            KC.encode buf k)
      ops;
    Buffer.contents buf

  (* A payload arrives from disk, so a malformed one raises [Failure] only:
     the count is checked against the bytes before anything is built,
     and trailing bytes are refused. *)
  let decode_ops payload =
    let len = String.length payload in
    let pos = ref 0 in
    let n = Codec.decode_int payload ~pos in
    (* every op takes at least its tag byte *)
    if n < 0 || n > len - !pos then failwith "Wal: bad op count";
    let ops =
      List.init n (fun _ ->
          if !pos >= len then failwith "Wal: truncated op";
          let tag = payload.[!pos] in
          incr pos;
          match tag with
          | 'i' ->
              let k = KC.decode payload ~pos in
              W_insert (k, VC.decode payload ~pos)
          | 'u' ->
              let k = KC.decode payload ~pos in
              W_update (k, VC.decode payload ~pos)
          | 'p' ->
              let k = KC.decode payload ~pos in
              W_upsert (k, VC.decode payload ~pos)
          | 'r' -> W_remove (KC.decode payload ~pos)
          | c -> failwith (Printf.sprintf "Wal: bad op tag %C" c))
    in
    if !pos <> len then failwith "Wal: trailing bytes";
    ops

  let record_ops payload =
    let pos = ref 0 in
    Codec.decode_int payload ~pos

  let open_dir ?segment_bytes ?readonly ?(fsync = true) ?(obs = Bw_obs.Null)
      ~dir () =
    let log, stats = Log.open_dir ?segment_bytes ?readonly ~dir () in
    let nops = ref 0 in
    Log.iter log (fun _ payload -> nops := !nops + record_ops payload);
    ( { log; nops = !nops; mu = Mutex.create (); do_fsync = fsync; obs },
      stats )

  let in_memory ?segment_bytes ?(obs = Bw_obs.Null) () =
    {
      log = Log.create ?segment_bytes ();
      nops = 0;
      mu = Mutex.create ();
      do_fsync = false;
      obs;
    }

  let pos t = t.nops
  let records t = Log.records t.log

  (* One group commit: one record, at most one fsync. Returns once the
     group is durable (fsync enabled) or at least logged (disabled). *)
  let commit t ~tid ops =
    match ops with
    | [] -> ()
    | ops ->
        let payload = encode_ops ops in
        Mutex.lock t.mu;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock t.mu)
          (fun () ->
            ignore (Log.append t.log payload);
            if t.do_fsync then Log.sync t.log;
            t.nops <- t.nops + List.length ops);
        if Bw_obs.enabled t.obs then begin
          Bw_obs.incr t.obs ~tid Bw_obs.C_wal_appends;
          Bw_obs.add t.obs ~tid Bw_obs.C_wal_bytes (String.length payload);
          if t.do_fsync then Bw_obs.incr t.obs ~tid Bw_obs.C_wal_fsyncs
        end

  (* Feed every op from position [from] onward (in commit order) to [f];
     returns the number of ops visited. *)
  let replay ?(from = 0) t f =
    let seen = ref 0 and fed = ref 0 in
    Log.iter t.log (fun _ payload ->
        List.iter
          (fun op ->
            if !seen >= from then begin
              f op;
              incr fed
            end;
            incr seen)
          (decode_ops payload));
    !fed

  let sync t = Log.sync t.log
  let close t = Log.close t.log
end
