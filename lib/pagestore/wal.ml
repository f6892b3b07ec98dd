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
    group sizes vary run to run, op counts do not. The tail reader
    ({!Make.tail}) additionally tracks whole commit records: a
    replication stream ships records, so standby acknowledgements are
    record-granular even though checkpoint positions are op-granular. *)

(* A tail-reader position, outside the functor so replication plumbing
   can stay monomorphic. Tracks the same point three ways: commit
   records consumed, ops consumed, and the underlying [Log] resume
   address (which makes steady-state polls O(new records) instead of
   O(log)). Only valid for the WAL generation it was created against —
   and invalidated by [Log.compact], which the durable store never runs
   on a WAL. *)
type cursor = {
  mutable c_rec : int;  (** commit records consumed *)
  mutable c_ops : int;  (** ops consumed *)
  mutable c_off : int;  (** [Log] resume address *)
}

let fresh_cursor () = { c_rec = 0; c_ops = 0; c_off = 0 }

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

  (* A payload arrives from disk, from a WALCHUNK frame or from a
     migration's capture log, so a malformed one raises [Failure] only:
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
  let bytes t = Log.bytes_used t.log

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

  (* Hand [f] up to [limit] committed record groups (raw encoded
     payloads, shippable verbatim) past [cur], advancing the cursor past
     each one fed; returns how many were fed. Runs under the
     group-commit mutex: a record is either fully committed and visible
     or not yet started, and the segment image is quiescent while we
     read it — the publication the OCaml memory model needs between an
     appending domain and a tailing one. *)
  let tail t ?(limit = max_int) cur f =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        let fed = ref 0 in
        let off =
          Log.iter_from t.log cur.c_off (fun _ payload ->
              if !fed >= limit then false
              else begin
                f payload;
                incr fed;
                cur.c_rec <- cur.c_rec + 1;
                cur.c_ops <- cur.c_ops + record_ops payload;
                true
              end)
        in
        cur.c_off <- off;
        !fed)

  (* Advance [cur] over whole records until [ops] ops have been
     consumed, without handing them out — aligns a fresh cursor with a
     checkpoint manifest's [wal_pos]. Checkpoints quiesce writers before
     reading [pos], so a manifest's [wal_pos] always lands on a record
     boundary; raises if this one doesn't (cursor/generation mixup). *)
  let seek t cur ~ops =
    Mutex.lock t.mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.mu)
      (fun () ->
        let off =
          Log.iter_from t.log cur.c_off (fun _ payload ->
              if cur.c_ops >= ops then false
              else begin
                cur.c_rec <- cur.c_rec + 1;
                cur.c_ops <- cur.c_ops + record_ops payload;
                true
              end)
        in
        cur.c_off <- off;
        if cur.c_ops <> ops then
          failwith
            (Printf.sprintf
               "Wal.seek: position %d is not a record boundary (reached %d)"
               ops cur.c_ops))

  let sync t = Log.sync t.log
  let close t = Log.close t.log
end
