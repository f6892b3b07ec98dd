(* Multi-domain stress + invariant-check harness. See bw_stress.mli for
   the invariant catalogue; the implementation notes here cover the
   synchronization structure.

   Workers own disjoint key stripes, so every key has a single writer and
   per-thread journals admit an exact sequential oracle. A phase barrier
   (Runner.Phaser) parks all workers and churners; the controller then
   replays journals, sweeps the key space, flushes the epoch system and
   audits the mapping table while nothing else runs — the only
   cross-domain accesses to worker state happen across the phaser's
   atomics, which order them. *)

module Growable = Bw_util.Growable
module Rng = Bw_util.Rng
module Runner = Harness.Runner
module MT = Mapping_table

type mix = {
  w_insert : int;
  w_read : int;
  w_update : int;
  w_remove : int;
  w_scan : int;
}

let default_mix =
  { w_insert = 30; w_read = 40; w_update = 15; w_remove = 10; w_scan = 5 }

type config = {
  domains : int;
  keys_per_domain : int;
  ops_per_phase : int;
  phases : int;
  time_budget_s : float option;
  mix : mix;
  scan_len : int;
  seed : int;
  churn_domains : int;
  churn_ops_per_phase : int;
  drive_advance : bool;
  batch : int;
  readers : int;
  verbose : bool;
}

let short_config =
  {
    domains = 4;
    keys_per_domain = 192;
    ops_per_phase = 400;
    phases = 3;
    time_budget_s = None;
    mix = default_mix;
    scan_len = 16;
    seed = 42;
    churn_domains = 2;
    churn_ops_per_phase = 3_000;
    drive_advance = true;
    batch = 1;
    readers = 0;
    verbose = false;
  }

let read_heavy_config =
  { short_config with readers = 3; keys_per_domain = 1024; ops_per_phase = 5_000 }

(* Point operations as data, so workers can either execute them directly
   or buffer [config.batch] of them and hand the run to the subject's
   batch path. Scans never batch: they flush and run per-op. *)
type batch_op =
  | Sb_insert of int * int
  | Sb_lookup of int
  | Sb_update of int * int
  | Sb_remove of int * int

type batch_res = Sb_applied of bool | Sb_values of int list

type subject = {
  s_name : string;
  s_unique : bool;
  s_insert : tid:int -> int -> int -> bool;
  s_lookup : tid:int -> int -> int list;
  s_update : tid:int -> int -> int -> bool;
  s_remove : tid:int -> int -> int -> bool;
  s_scan : tid:int -> int -> int -> int;
  s_batch : (tid:int -> batch_op array -> batch_res array) option;
  s_quiesce : tid:int -> unit;
  s_start_aux : unit -> unit;
  s_stop_aux : unit -> unit;
  s_obs : Bw_obs.sink;
  s_epoch : Epoch.t option;
  s_verify : (unit -> unit) option;
  s_max_chains : (unit -> int * int) option;
  s_chain_bound : int option;
  s_cache_check : (tid:int -> int -> bool) option;
  s_cache_stats : (unit -> Bwtree.leaf_cache_stats) option;
}

(* --- subjects --- *)

let bwtree_subject ?(config = Bwtree.default_config) ?obs ~domains () =
  (* the leaf-cache counter check reads the tree's registry, so the tree
     always gets one *)
  let obs =
    match obs with
    | Some (Bw_obs.To _ as o) -> o
    | Some Bw_obs.Null | None -> Bw_obs.sink (Bw_obs.create ())
  in
  let config =
    if config.Bwtree.max_threads < domains + 1 then
      { config with Bwtree.max_threads = domains + 1 }
    else config
  in
  let module B = Harness.Drivers.Int.Bw in
  let t = B.create ~config ~obs () in
  {
    s_name = "OpenBw-Tree";
    s_unique = config.Bwtree.unique_keys;
    s_insert = (fun ~tid k v -> B.insert t ~tid k v);
    s_lookup = (fun ~tid k -> B.lookup t ~tid k);
    s_update = (fun ~tid k v -> B.update t ~tid k v);
    s_remove = (fun ~tid k v -> B.delete t ~tid k v);
    s_scan = (fun ~tid k n -> List.length (B.scan t ~tid ~n k));
    s_batch =
      Some
        (fun ~tid ops ->
          let bops =
            Bw_util.Arr.map
              (function
                | Sb_insert (k, v) -> (k, B.B_insert v)
                | Sb_lookup k -> (k, B.B_get)
                | Sb_update (k, v) -> (k, B.B_update v)
                | Sb_remove (k, v) -> (k, B.B_delete v))
              ops
          in
          Bw_util.Arr.map
            (function
              | B.R_applied b -> Sb_applied b
              | B.R_values vs -> Sb_values vs)
            (B.execute_batch t ~tid bops));
    s_quiesce = (fun ~tid -> B.quiesce t ~tid);
    s_start_aux = (fun () -> B.start_gc_thread t ());
    s_stop_aux = (fun () -> B.stop_gc_thread t);
    s_obs = obs;
    s_epoch = Some (B.epoch t);
    s_verify = Some (fun () -> B.verify_invariants t);
    s_max_chains = Some (fun () -> B.max_chains t);
    (* Consolidation is lazy: a chain can overshoot its threshold by the
       appends that race in before the next traversal consolidates, so a
       quiesced barrier tolerates threshold + a margin per concurrent
       appender. *)
    s_chain_bound =
      Some
        (max config.Bwtree.leaf_chain_max config.Bwtree.inner_chain_max
        + (2 * (domains + 1))
        + 8);
    s_cache_check = Some (fun ~tid k -> B.leaf_cache_check t ~tid k);
    s_cache_stats = Some (fun () -> B.leaf_cache_stats t);
  }

let of_driver (d : int Runner.driver) =
  {
    s_name = d.Runner.name;
    s_unique = true;
    s_insert = (fun ~tid k v -> d.Runner.insert ~tid k v);
    s_lookup =
      (fun ~tid k ->
        match d.Runner.read ~tid k with None -> [] | Some v -> [ v ]);
    s_update = (fun ~tid k v -> d.Runner.update ~tid k v);
    s_remove = (fun ~tid k _v -> d.Runner.remove ~tid k);
    s_scan = (fun ~tid k n -> d.Runner.scan ~tid k ~n (fun _ _ -> ()));
    (* Index_iface.exec_batch falls back to per-op application when the
       driver has no native batch path, so every driver gets coverage.
       The unique-key subject drops the remove value, same as s_remove. *)
    s_batch =
      Some
        (fun ~tid ops ->
          let bops =
            Bw_util.Arr.map
              (function
                | Sb_insert (k, v) -> Index_iface.Bop_insert (k, v)
                | Sb_lookup k -> Index_iface.Bop_read k
                | Sb_update (k, v) -> Index_iface.Bop_update (k, v)
                | Sb_remove (k, _v) -> Index_iface.Bop_remove k)
              ops
          in
          Bw_util.Arr.map
            (function
              | Index_iface.Bres_applied b -> Sb_applied b
              | Index_iface.Bres_value o -> Sb_values (Option.to_list o)
              | Index_iface.Bres_bad_key -> Sb_applied false)
            (Index_iface.exec_batch d ~tid bops));
    s_quiesce = (fun ~tid -> d.Runner.thread_done ~tid);
    s_start_aux = d.Runner.start_aux;
    s_stop_aux = d.Runner.stop_aux;
    s_obs = Bw_obs.Null;
    s_epoch = None;
    s_verify = None;
    s_max_chains = None;
    s_chain_bound = None;
    s_cache_check = None;
    s_cache_stats = None;
  }

(* --- journals --- *)

(* Every value encodes the key it was written under in its high bits, so
   cross-stripe reads can be checked for provenance without access to the
   owner's oracle. *)
let value_bits = 20
let value_of k seq = (k lsl value_bits) lor (seq land ((1 lsl value_bits) - 1))

type entry =
  | E_insert of int * int * bool
  | E_remove of int * int * bool
  | E_update of int * int * bool
  | E_lookup of int * int list
  | E_scan of int * int * int  (* start key, limit, visited *)

type worker_state = {
  wid : int;
  rng : Rng.t;
  journal : entry Growable.t;
  (* the worker's private view of its stripe, used only to pick plausible
     remove/update targets; the independent check is the oracle replay *)
  mine : (int, int list) Hashtbl.t;
  oracle : (int, int list) Hashtbl.t;  (* controller-side, replay state *)
  mutable seq : int;
}

type churn_state = {
  cid : int;
  c_rng : Rng.t;
  c_live : (int * int) Growable.t;
  mutable c_seq : int;
  mutable c_ops : int;
}

type report = {
  r_ops : int;
  r_churn_ops : int;
  r_phases : int;
  r_checks : int;
  r_violations : string list;
  r_seconds : float;
  r_epoch : Epoch.stats option;
}

let max_reported_violations = 50

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d phases, %d index ops, %d churn ops in %.2fs@,%d checks, %d violation(s)"
    r.r_phases r.r_ops r.r_churn_ops r.r_seconds r.r_checks
    (List.length r.r_violations);
  List.iter (fun v -> Format.fprintf ppf "@,  %s" v) r.r_violations;
  (match r.r_epoch with
  | Some s ->
      Format.fprintf ppf "@,epoch: retired %d, reclaimed %d, advanced %d"
        s.Epoch.retired s.Epoch.reclaimed s.Epoch.epochs_advanced
  | None -> ());
  Format.fprintf ppf "@]"

let rec remove_one v = function
  | [] -> []
  | x :: rest -> if x = v then rest else x :: remove_one v rest

let run cfg s =
  if cfg.domains < 1 then invalid_arg "Bw_stress.run: domains < 1";
  if cfg.batch < 1 then invalid_arg "Bw_stress.run: batch < 1";
  if cfg.readers < 0 || cfg.readers >= cfg.domains then
    invalid_arg "Bw_stress.run: readers outside [0, domains)";
  let mix =
    (* non-unique update semantics (replace the first visible duplicate)
       have no clean sequential model; fold that weight into inserts *)
    if s.s_unique then cfg.mix
    else
      {
        cfg.mix with
        w_insert = cfg.mix.w_insert + cfg.mix.w_update;
        w_update = 0;
      }
  in
  let total_weight =
    mix.w_insert + mix.w_read + mix.w_update + mix.w_remove + mix.w_scan
  in
  if total_weight <= 0 then invalid_arg "Bw_stress.run: empty mix";
  let keyspace = cfg.domains * cfg.keys_per_domain in
  let checker_tid = cfg.domains in
  (* violation sink, shared by all domains *)
  let vmutex = Mutex.create () in
  let violations = ref [] in
  let n_violations = ref 0 in
  let checks = Atomic.make 0 in
  let record cond msg =
    Atomic.incr checks;
    if not cond then begin
      Mutex.lock vmutex;
      incr n_violations;
      if !n_violations <= max_reported_violations then
        violations := msg () :: !violations;
      Mutex.unlock vmutex
    end
  in
  let workers =
    Array.init cfg.domains (fun wid ->
        {
          wid;
          rng = Rng.create ~seed:(Int64.of_int (cfg.seed + (wid * 7919)));
          journal = Growable.create ();
          mine = Hashtbl.create 256;
          oracle = Hashtbl.create 256;
          seq = 0;
        })
  in
  let table = MT.create ~chunk_bits:10 ~dir_bits:10 ~dummy:(-1) () in
  let churn_live_cap = 512 in
  let churners =
    Array.init cfg.churn_domains (fun cid ->
        {
          cid;
          c_rng = Rng.create ~seed:(Int64.of_int (cfg.seed + 104729 + cid));
          c_live = Growable.create ();
          c_seq = 0;
          c_ops = 0;
        })
  in
  let phaser = Runner.Phaser.create (cfg.domains + cfg.churn_domains) in
  let stop_flag = Atomic.make false in
  let t0 = Unix.gettimeofday () in

  (* --- worker op generation --- *)
  let find_or_empty tbl k = try Hashtbl.find tbl k with Not_found -> [] in
  let use_batch = cfg.batch > 1 && s.s_batch <> None in
  (* Journal an executed point op and update the worker's private view;
     shared by the direct path and the batch flush, so batched results
     land in the journal in submission order — exactly what the oracle
     replay expects. *)
  let note (st : worker_state) op res =
    match (op, res) with
    | Sb_insert (k, v), Sb_applied r ->
        Growable.push st.journal (E_insert (k, v, r));
        if r then
          Hashtbl.replace st.mine k
            (if s.s_unique then [ v ] else v :: find_or_empty st.mine k)
    | Sb_lookup k, Sb_values vs -> Growable.push st.journal (E_lookup (k, vs))
    | Sb_update (k, v), Sb_applied r ->
        Growable.push st.journal (E_update (k, v, r));
        if r then Hashtbl.replace st.mine k [ v ]
    | Sb_remove (k, v), Sb_applied r ->
        Growable.push st.journal (E_remove (k, v, r));
        if r then
          if s.s_unique then Hashtbl.remove st.mine k
          else (
            match remove_one v (find_or_empty st.mine k) with
            | [] -> Hashtbl.remove st.mine k
            | l -> Hashtbl.replace st.mine k l)
    | (Sb_insert _ | Sb_update _ | Sb_remove _), Sb_values _
    | Sb_lookup _, Sb_applied _ ->
        record false (fun () ->
            Printf.sprintf "[worker %d] batch result has the wrong shape"
              st.wid)
  in
  let exec_one (st : worker_state) ~submit ~scan =
    let own_key () =
      (st.wid * cfg.keys_per_domain) + Rng.next_int st.rng cfg.keys_per_domain
    in
    let any_key () = Rng.next_int st.rng keyspace in
    let fresh st k =
      st.seq <- st.seq + 1;
      value_of k st.seq
    in
    let x = Rng.next_int st.rng total_weight in
    if x < mix.w_insert then begin
      let k = own_key () in
      submit (Sb_insert (k, fresh st k))
    end
    else if x < mix.w_insert + mix.w_read then submit (Sb_lookup (any_key ()))
    else if x < mix.w_insert + mix.w_read + mix.w_update then begin
      let k = own_key () in
      submit (Sb_update (k, fresh st k))
    end
    else if x < mix.w_insert + mix.w_read + mix.w_update + mix.w_remove
    then begin
      let k = own_key () in
      (* in non-unique mode remove needs an exact live pair to have a
         chance of succeeding; fall back to a never-inserted value.
         [mine] may lag behind ops still buffered for the next batch
         flush — that only lowers the hit rate, the oracle replays
         whatever actually happened *)
      let v =
        match find_or_empty st.mine k with
        | v :: _ -> v
        | [] -> value_of k 0
      in
      submit (Sb_remove (k, v))
    end
    else scan (any_key ())
  in

  let worker_loop wid =
    let st = workers.(wid) in
    let tid = wid in
    let direct op =
      let res =
        match op with
        | Sb_insert (k, v) -> Sb_applied (s.s_insert ~tid k v)
        | Sb_lookup k -> Sb_values (s.s_lookup ~tid k)
        | Sb_update (k, v) -> Sb_applied (s.s_update ~tid k v)
        | Sb_remove (k, v) -> Sb_applied (s.s_remove ~tid k v)
      in
      note st op res
    in
    let run_batch =
      match s.s_batch with Some f -> f | None -> fun ~tid:_ _ -> [||]
    in
    let pend = Growable.create () in
    let flush () =
      let n = Growable.length pend in
      if n > 0 then begin
        let ops = Bw_util.Arr.init n (Growable.get pend) in
        let res = run_batch ~tid ops in
        if Array.length res = n then
          Array.iteri (fun i op -> note st op res.(i)) ops
        else
          record false (fun () ->
              Printf.sprintf
                "[worker %d] batch of %d ops returned %d results" st.wid n
                (Array.length res));
        (* keep the backing storage across flushes *)
        Growable.reset pend
      end
    in
    let submit op =
      if use_batch then begin
        Growable.push pend op;
        if Growable.length pend >= cfg.batch then flush ()
      end
      else direct op
    in
    let scan k =
      (* scans have no batch form: order them after the pending ops *)
      if use_batch then flush ();
      Growable.push st.journal
        (E_scan (k, cfg.scan_len, s.s_scan ~tid k cfg.scan_len))
    in
    let writers = cfg.domains - cfg.readers in
    let read_writers_key () =
      submit
        (Sb_lookup
           ((Rng.next_int st.rng writers * cfg.keys_per_domain)
           + Rng.next_int st.rng cfg.keys_per_domain))
    in
    let continue = ref true in
    while !continue do
      for _ = 1 to cfg.ops_per_phase do
        if wid >= writers then read_writers_key () else exec_one st ~submit ~scan
      done;
      if use_batch then flush ();
      s.s_quiesce ~tid:wid;
      Runner.Phaser.await phaser;
      if Atomic.get stop_flag then continue := false
    done
  in

  (* --- mapping-table churn --- *)
  let churn_loop cid =
    let st = churners.(cid) in
    let continue = ref true in
    while !continue do
      for _ = 1 to cfg.churn_ops_per_phase do
        st.c_ops <- st.c_ops + 1;
        let len = Growable.length st.c_live in
        if len > 0 && (len >= churn_live_cap || Rng.next_bool st.c_rng)
        then begin
          let i = Rng.next_int st.c_rng len in
          let id, v = Growable.get st.c_live i in
          Growable.set st.c_live i (Growable.get st.c_live (len - 1));
          Growable.truncate st.c_live (len - 1);
          (* no other domain may touch an id we own: a mismatch here means
             a racing free_id stomped a live cell *)
          record
            (MT.get table id = v)
            (fun () ->
              Printf.sprintf "[churn %d] live id %d reads %d, expected %d"
                cid id (MT.get table id) v);
          MT.free_id table id
        end
        else begin
          st.c_seq <- st.c_seq + 1;
          let v = (cid lsl 40) lor st.c_seq in
          let id = MT.allocate table v in
          record
            (MT.get table id = v)
            (fun () ->
              Printf.sprintf
                "[churn %d] allocate %d installed %d but reads %d" cid id v
                (MT.get table id));
          Growable.push st.c_live (id, v)
        end
      done;
      Runner.Phaser.await phaser;
      if Atomic.get stop_flag then continue := false
    done
  in

  (* --- controller-side checks, run while everyone is parked --- *)
  let replay ~phase (st : worker_state) =
    let ctx op = Printf.sprintf "[phase %d][worker %d] %s" phase st.wid op in
    let o = st.oracle in
    Growable.iter
      (fun e ->
        match e with
        | E_insert (k, v, r) ->
            let cur = find_or_empty o k in
            let expected =
              if s.s_unique then cur = [] else not (List.mem v cur)
            in
            record (r = expected) (fun () ->
                ctx
                  (Printf.sprintf "insert(%d,%d) returned %b, oracle says %b"
                     k v r expected));
            if r then
              Hashtbl.replace o k (if s.s_unique then [ v ] else v :: cur)
        | E_remove (k, v, r) ->
            let cur = find_or_empty o k in
            let expected =
              if s.s_unique then cur <> [] else List.mem v cur
            in
            record (r = expected) (fun () ->
                ctx
                  (Printf.sprintf "remove(%d,%d) returned %b, oracle says %b"
                     k v r expected));
            if r then
              if s.s_unique then Hashtbl.remove o k
              else (
                match remove_one v cur with
                | [] -> Hashtbl.remove o k
                | l -> Hashtbl.replace o k l)
        | E_update (k, v, r) ->
            let cur = find_or_empty o k in
            record
              (r = (cur <> []))
              (fun () ->
                ctx
                  (Printf.sprintf "update(%d,%d) returned %b, oracle says %b"
                     k v r (cur <> [])));
            if r then Hashtbl.replace o k [ v ]
        | E_lookup (k, vs) ->
            if k / cfg.keys_per_domain = st.wid then
              let expected = List.sort compare (find_or_empty o k) in
              record
                (List.sort compare vs = expected)
                (fun () ->
                  ctx
                    (Printf.sprintf
                       "lookup(%d) saw [%s], oracle says [%s]" k
                       (String.concat ";" (List.map string_of_int vs))
                       (String.concat ";"
                          (List.map string_of_int expected))))
            else begin
              record
                (List.for_all (fun v -> v lsr value_bits = k) vs)
                (fun () ->
                  ctx
                    (Printf.sprintf
                       "lookup(%d) returned a value of another key" k));
              if s.s_unique then
                record
                  (List.length vs <= 1)
                  (fun () ->
                    ctx
                      (Printf.sprintf "lookup(%d) saw %d values on a unique \
                                       index" k (List.length vs)))
            end
        | E_scan (k, n, c) ->
            record
              (c >= 0 && c <= n)
              (fun () ->
                ctx (Printf.sprintf "scan(%d,%d) visited %d items" k n c)))
      st.journal;
    Growable.clear st.journal
  in

  let sweep ~phase =
    for k = 0 to keyspace - 1 do
      let vs = List.sort compare (s.s_lookup ~tid:checker_tid k) in
      let owner = workers.(k / cfg.keys_per_domain) in
      let expected = List.sort compare (find_or_empty owner.oracle k) in
      record (vs = expected) (fun () ->
          Printf.sprintf
            "[phase %d] sweep: key %d holds [%s] but oracle says [%s]" phase
            k
            (String.concat ";" (List.map string_of_int vs))
            (String.concat ";" (List.map string_of_int expected)))
    done
  in

  let check_epoch ~phase =
    match s.s_epoch with
    | None -> ()
    | Some e ->
        for tid = 0 to checker_tid do
          s.s_quiesce ~tid
        done;
        Epoch.flush e;
        record
          (Epoch.pending e = 0)
          (fun () ->
            Printf.sprintf
              "[phase %d] epoch: %d objects still pending after quiesce + \
               flush" phase (Epoch.pending e));
        (* The observability gauge must agree with the direct probe: a
           quiesced, flushed tree reports zero pending garbage. *)
        (match s.s_obs with
        | Bw_obs.Null -> ()
        | Bw_obs.To reg ->
            let sn = Bw_obs.snapshot reg in
            let g =
              try List.assoc Bw_obs.G_epoch_pending sn.Bw_obs.sn_gauges
              with Not_found -> 0
            in
            record (g = 0) (fun () ->
                Printf.sprintf
                  "[phase %d] obs: pending-garbage gauge reads %d after \
                   quiesce + flush" phase g))
  in

  let check_structure ~phase =
    (match (s.s_max_chains, s.s_chain_bound) with
    | Some probe, Some bound ->
        let leaf, inner = probe () in
        record (leaf <= bound) (fun () ->
            Printf.sprintf "[phase %d] leaf delta chain %d exceeds bound %d"
              phase leaf bound);
        record (inner <= bound) (fun () ->
            Printf.sprintf "[phase %d] inner delta chain %d exceeds bound %d"
              phase inner bound)
    | _ -> ());
    match s.s_verify with
    | None -> ()
    | Some verify ->
        record
          (try
             verify ();
             true
           with _ -> false)
          (fun () ->
            Printf.sprintf "[phase %d] structural verify failed: %s" phase
              (try
                 verify ();
                 "?"
               with exn -> Printexc.to_string exn))
  in

  (* Leaf-cache soundness at a quiesced barrier: sampled keys probe the
     cache and compare the cached leaf against a from-root descent (the
     splitters raced during the phase, so surviving entries must still
     agree), and the counters must satisfy the protocol's accounting —
     every failed re-validation was also an invalidation, so
     stale_verifies can never outrun invalidations + SMO events. *)
  let check_cache ~phase =
    (match s.s_cache_check with
    | None -> ()
    | Some probe ->
        let step = max 1 (keyspace / 512) in
        let k = ref 0 in
        while !k < keyspace do
          record
            (probe ~tid:checker_tid !k)
            (fun () ->
              Printf.sprintf
                "[phase %d] leaf cache: cached leaf for key %d disagrees \
                 with a from-root descent" phase !k);
          k := !k + step
        done);
    match s.s_cache_stats with
    | None -> ()
    | Some stats ->
        let st = stats () in
        record
          (st.Bwtree.lc_stale_verifies
          <= st.Bwtree.lc_invalidations + st.Bwtree.lc_smo_events)
          (fun () ->
            Printf.sprintf
              "[phase %d] leaf cache: %d stale verifies exceed %d \
               invalidations + %d SMO events" phase
              st.Bwtree.lc_stale_verifies st.Bwtree.lc_invalidations
              st.Bwtree.lc_smo_events)
  in

  let check_table ~phase =
    if cfg.churn_domains > 0 then begin
      let seen = Hashtbl.create 1024 in
      let live = ref 0 in
      Array.iter
        (fun st ->
          Growable.iter
            (fun (id, v) ->
              incr live;
              record
                (not (Hashtbl.mem seen id))
                (fun () ->
                  Printf.sprintf "[phase %d] table: id %d live twice" phase id);
              Hashtbl.replace seen id ();
              record (MT.get table id = v) (fun () ->
                  Printf.sprintf
                    "[phase %d] table: live id %d reads %d, expected %d"
                    phase id (MT.get table id) v))
            st.c_live)
        churners;
      let free = MT.free_list_length table and hw = MT.high_water table in
      record
        (!live + free = hw)
        (fun () ->
          Printf.sprintf
            "[phase %d] table accounting: %d live + %d free <> high water %d"
            phase !live free hw)
    end
  in

  (* --- spin everything up --- *)
  s.s_start_aux ();
  let advancer_stop = Atomic.make false in
  let advancer =
    match (cfg.drive_advance, s.s_epoch) with
    | true, Some e ->
        Some
          (Domain.spawn (fun () ->
               while not (Atomic.get advancer_stop) do
                 Epoch.advance e;
                 Unix.sleepf 0.0002
               done))
    | _ -> None
  in
  let worker_domains =
    Array.init cfg.domains (fun wid -> Domain.spawn (fun () -> worker_loop wid))
  in
  let churn_domains =
    Array.init cfg.churn_domains (fun cid ->
        Domain.spawn (fun () -> churn_loop cid))
  in
  let phases_done = ref 0 in
  let finished = ref false in
  while not !finished do
    Runner.Phaser.wait_all phaser;
    let phase = !phases_done + 1 in
    Array.iter (fun st -> replay ~phase st) workers;
    sweep ~phase;
    check_epoch ~phase;
    check_structure ~phase;
    check_cache ~phase;
    check_table ~phase;
    phases_done := phase;
    if cfg.verbose then
      Printf.printf
        "phase %3d | %7d ops | %7d checks | %d violation(s) | %.1fs\n%!"
        phase
        (phase * cfg.ops_per_phase * cfg.domains)
        (Atomic.get checks) !n_violations
        (Unix.gettimeofday () -. t0);
    let stop =
      match cfg.time_budget_s with
      | Some budget -> Unix.gettimeofday () -. t0 >= budget
      | None -> phase >= cfg.phases
    in
    if stop then begin
      Atomic.set stop_flag true;
      finished := true
    end;
    Runner.Phaser.release phaser
  done;
  Array.iter Domain.join worker_domains;
  Array.iter Domain.join churn_domains;
  (match advancer with
  | Some d ->
      Atomic.set advancer_stop true;
      Domain.join d
  | None -> ());
  s.s_stop_aux ();
  {
    r_ops = !phases_done * cfg.ops_per_phase * cfg.domains;
    r_churn_ops = Array.fold_left (fun acc st -> acc + st.c_ops) 0 churners;
    r_phases = !phases_done;
    r_checks = Atomic.get checks;
    r_violations = List.rev !violations;
    r_seconds = Unix.gettimeofday () -. t0;
    r_epoch = Option.map Epoch.stats s.s_epoch;
  }

(* ------------------------------------------------------------------ *)
(* Crash-recovery stress: kill a durable pagestore mid-flight,        *)
(* corrupt its WAL tail, recover, and check prefix consistency.       *)
(* ------------------------------------------------------------------ *)

type crash_config = {
  cc_domains : int;
  cc_keys_per_domain : int;
  cc_ops_per_phase : int;
  cc_batch : int;
  cc_shards : int;
  cc_fsync : bool;
  cc_segment_bytes : int;
  cc_rounds : int;
  cc_seed : int;
  cc_dir : string;
  cc_verbose : bool;
}

let short_crash_config ~dir =
  {
    cc_domains = 3;
    cc_keys_per_domain = 128;
    cc_ops_per_phase = 300;
    cc_batch = 1;
    cc_shards = 1;
    cc_fsync = false;
    cc_segment_bytes = 4096;
    cc_rounds = 3;
    cc_seed = 42;
    cc_dir = dir;
    cc_verbose = false;
  }

type crash_report = {
  cr_rounds : int;
  cr_ops : int;  (** applied writes journaled across all rounds *)
  cr_replayed : int;  (** WAL ops replayed over all recoveries *)
  cr_torn_bytes : int;
  cr_dropped_segments : int;
  cr_checks : int;
  cr_violations : string list;
}

let pp_crash_report ppf r =
  Format.fprintf ppf
    "crash-recovery: %d rounds | %d writes, %d replayed | torn %dB, %d \
     segments dropped | %d checks"
    r.cr_rounds r.cr_ops r.cr_replayed r.cr_torn_bytes r.cr_dropped_segments
    r.cr_checks;
  if r.cr_violations = [] then Format.fprintf ppf " | all invariants held"
  else begin
    Format.fprintf ppf " | %d VIOLATIONS:" (List.length r.cr_violations);
    List.iter (fun v -> Format.fprintf ppf "@.  %s" v) r.cr_violations
  end

(* Replayed-op view: what the recovery's [on_replay] callback saw, in a
   shape comparable against the worker journals. *)
type cw_op =
  | Cw_insert of int * int
  | Cw_update of int * int
  | Cw_upsert of int * int
  | Cw_remove of int

let cw_key = function
  | Cw_insert (k, _) | Cw_update (k, _) | Cw_upsert (k, _) | Cw_remove k -> k

let cw_to_string = function
  | Cw_insert (k, v) -> Printf.sprintf "insert(%d,%#x)" k v
  | Cw_update (k, v) -> Printf.sprintf "update(%d,%#x)" k v
  | Cw_upsert (k, v) -> Printf.sprintf "upsert(%d,%#x)" k v
  | Cw_remove k -> Printf.sprintf "remove(%d)" k

(* Per-worker crash-round state: [cj1]/[cj2] journal the applied writes
   of the two phases as [(shard, op)] in submission order; [c_mine] is
   the worker's private view used to pick plausible targets. *)
type cworker = {
  c_wid : int;
  c_rng : Rng.t;
  c_mine : (int, int) Hashtbl.t;
  mutable c_seq : int;
  cj1 : (int * cw_op) Growable.t;
  cj2 : (int * cw_op) Growable.t;
}

let rec cw_is_prefix got expected =
  match (got, expected) with
  | [], _ -> true
  | g :: gt, e :: et -> g = e && cw_is_prefix gt et
  | _ :: _, [] -> false

(* Flip one random bit of [path] at a random offset, through a plain fd
   (write-through, like the log's own appends). *)
let flip_random_bit rng path size =
  let off = Rng.next_int rng size in
  let bit = Rng.next_int rng 8 in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 = 1 then begin
        Bytes.set b 0
          (Char.chr (Char.code (Bytes.get b 0) lxor (1 lsl bit)));
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        ignore (Unix.write fd b 0 1)
      end)

(* One load → checkpoint → load → crash → corrupt → recover → verify
   cycle against a fresh data dir. *)
let run_crash_round (cfg : crash_config) ~seed ~record =
  let module D = Harness.Drivers in
  let module W = D.Int.Durable.W in
  let shards = max 1 cfg.cc_shards in
  let keyspace = cfg.cc_domains * cfg.cc_keys_per_domain in
  let checker_tid = cfg.cc_domains in
  let shard_of = D.Int.K.shard_of (D.Int.K.part ~hi:(keyspace - 1) shards) in
  Pagestore.Store.rm_rf cfg.cc_dir;
  let open_durable ?on_replay () : int D.durable =
    D.Int.durable ~segment_bytes:cfg.cc_segment_bytes ~fsync:cfg.cc_fsync
      ~hi:(keyspace - 1) ?on_replay ~shards ~dir:cfg.cc_dir ()
  in
  let workers =
    Array.init cfg.cc_domains (fun wid ->
        {
          c_wid = wid;
          c_rng = Rng.create ~seed:(Int64.of_int (seed + (wid * 7919)));
          c_mine = Hashtbl.create 256;
          c_seq = 0;
          cj1 = Growable.create ();
          cj2 = Growable.create ();
        })
  in
  (* --- one worker phase: random writes on the worker's own stripe --- *)
  let worker_phase (d : int Runner.driver) (st : cworker) journal =
    let tid = st.c_wid in
    let own_key () =
      (st.c_wid * cfg.cc_keys_per_domain)
      + Rng.next_int st.c_rng cfg.cc_keys_per_domain
    in
    let fresh_value k =
      st.c_seq <- st.c_seq + 1;
      value_of k st.c_seq
    in
    (* generate one op as batch-op data; results are folded back below *)
    let gen () =
      let k = own_key () in
      let r = Rng.next_int st.c_rng 100 in
      if r < 40 then Index_iface.Bop_insert (k, fresh_value k)
      else if r < 65 then Index_iface.Bop_update (k, fresh_value k)
      else if r < 85 then Index_iface.Bop_remove k
      else Index_iface.Bop_read k
    in
    let note op res =
      match (op, res) with
      | Index_iface.Bop_insert (k, v), Index_iface.Bres_applied true ->
          Hashtbl.replace st.c_mine k v;
          Growable.push journal (shard_of k, Cw_insert (k, v))
      | Index_iface.Bop_update (k, v), Index_iface.Bres_applied true ->
          Hashtbl.replace st.c_mine k v;
          Growable.push journal (shard_of k, Cw_update (k, v))
      | Index_iface.Bop_remove k, Index_iface.Bres_applied true ->
          Hashtbl.remove st.c_mine k;
          Growable.push journal (shard_of k, Cw_remove k)
      | _ -> ()
    in
    if cfg.cc_batch <= 1 then
      for _ = 1 to cfg.cc_ops_per_phase do
        let op = gen () in
        let res =
          match op with
          | Index_iface.Bop_insert (k, v) ->
              Index_iface.Bres_applied (d.Runner.insert ~tid k v)
          | Index_iface.Bop_update (k, v) ->
              Index_iface.Bres_applied (d.Runner.update ~tid k v)
          | Index_iface.Bop_upsert _ -> assert false (* never generated *)
          | Index_iface.Bop_remove k ->
              Index_iface.Bres_applied (d.Runner.remove ~tid k)
          | Index_iface.Bop_read k ->
              Index_iface.Bres_value (d.Runner.read ~tid k)
        in
        note op res
      done
    else begin
      let left = ref cfg.cc_ops_per_phase in
      while !left > 0 do
        let n = min cfg.cc_batch !left in
        left := !left - n;
        let ops = Array.init n (fun _ -> gen ()) in
        let res = Index_iface.exec_batch d ~tid ops in
        Array.iteri (fun i op -> note op res.(i)) ops
      done
    end;
    d.Runner.thread_done ~tid
  in
  let run_phase d journal_of =
    let doms =
      Array.map
        (fun st -> Domain.spawn (fun () -> worker_phase d st (journal_of st)))
        workers
    in
    Array.iter Domain.join doms
  in

  (* phase 1 → quiesced checkpoint → phase 2 → crash (no checkpoint) *)
  let dur1 = open_durable () in
  record dur1.D.dur_stats.Pagestore.Store.rs_fresh (fun () ->
      "crash: round opened a wiped dir but recovery was not fresh");
  run_phase dur1.D.dur_driver (fun st -> st.cj1);
  dur1.D.dur_checkpoint ~tid:checker_tid ();
  run_phase dur1.D.dur_driver (fun st -> st.cj2);
  (* Simulate the kill: drop the handles without checkpointing.  The
     WAL appends are write-through, so the on-disk bytes are exactly
     what a SIGKILL at this point would leave; closing fds here only
     releases resources. *)
  dur1.D.dur_close ();

  (* --- corrupt the WAL tail, one independent decision per shard --- *)
  let shard_dirs =
    Array.init shards (Pagestore.Store.shard_dir cfg.cc_dir ~shards)
  in
  let crng = Rng.create ~seed:(Int64.of_int (seed + 604171)) in
  Array.iter
    (fun dirp ->
      match Pagestore.Store.read_current dirp with
      | None ->
          record false (fun () ->
              Printf.sprintf "crash: no CURRENT under %s after shutdown" dirp)
      | Some gen -> (
          let wdir = Pagestore.Store.wal_dir dirp gen in
          let files = ref [] in
          let i = ref 0 in
          let continue = ref true in
          while !continue do
            let p = Pagestore.Log.segment_path ~dir:wdir !i in
            if Sys.file_exists p then begin
              files := (p, (Unix.stat p).Unix.st_size) :: !files;
              incr i
            end
            else continue := false
          done;
          let files = List.rev !files in
          let sized = List.filter (fun (_, s) -> s > 0) files in
          match Rng.next_int crng 3 with
          | 0 -> () (* clean-close recovery: full WAL must replay *)
          | 1 -> (
              (* tear the tail: truncate the last segment mid-record *)
              match List.rev sized with
              | (path, size) :: _ ->
                  Unix.truncate path (Rng.next_int crng size)
              | [] -> ())
          | _ -> (
              (* flip one bit anywhere: recovery must drop everything
                 from the damaged record on, in every later segment *)
              match sized with
              | [] -> ()
              | l ->
                  let path, size = List.nth l (Rng.next_int crng (List.length l)) in
                  flip_random_bit crng path size)))
    shard_dirs;

  (* --- recover, collecting the replayed ops per shard --- *)
  let replayed = Array.init shards (fun _ -> Growable.create ()) in
  let cw_of_wop = function
    | W.W_insert (k, v) -> Cw_insert (k, v)
    | W.W_update (k, v) -> Cw_update (k, v)
    | W.W_upsert (k, v) -> Cw_upsert (k, v)
    | W.W_remove k -> Cw_remove k
  in
  let dur2 =
    open_durable
      ~on_replay:(fun s op -> Growable.push replayed.(s) (cw_of_wop op))
      ()
  in
  let stats2 = dur2.D.dur_stats in
  let total_replayed =
    Array.fold_left (fun acc g -> acc + Growable.length g) 0 replayed
  in
  record (not stats2.Pagestore.Store.rs_fresh) (fun () ->
      "crash: recovery after a checkpoint came up fresh (lost the store)");
  record
    (stats2.Pagestore.Store.rs_wal_ops = total_replayed)
    (fun () ->
      Printf.sprintf
        "crash: rs_wal_ops=%d but on_replay delivered %d ops"
        stats2.Pagestore.Store.rs_wal_ops total_replayed);

  (* --- per-(worker, shard): replayed ops are a journal prefix --- *)
  let expected = Array.make_matrix cfg.cc_domains shards [] in
  Array.iter
    (fun st ->
      Growable.iter
        (fun (s, op) -> expected.(st.c_wid).(s) <- op :: expected.(st.c_wid).(s))
        st.cj2)
    workers;
  let got = Array.make_matrix cfg.cc_domains shards [] in
  Array.iteri
    (fun s g ->
      Growable.iter
        (fun op ->
          let wid = cw_key op / cfg.cc_keys_per_domain in
          if wid < 0 || wid >= cfg.cc_domains then
            record false (fun () ->
                Printf.sprintf "crash: replayed op %s outside any stripe"
                  (cw_to_string op))
          else got.(wid).(s) <- op :: got.(wid).(s))
        g)
    replayed;
  let n_replayed = Array.make_matrix cfg.cc_domains shards 0 in
  for wid = 0 to cfg.cc_domains - 1 do
    for s = 0 to shards - 1 do
      let exp = List.rev expected.(wid).(s) in
      let g = List.rev got.(wid).(s) in
      n_replayed.(wid).(s) <- List.length g;
      record (cw_is_prefix g exp) (fun () ->
          Printf.sprintf
            "crash: worker %d shard %d: %d replayed ops are not a prefix of \
             its %d journaled writes"
            wid s (List.length g) (List.length exp))
    done
  done;

  (* --- oracle: phase-1 journals in full, phase-2 up to the replayed
     prefix of each (worker, shard) --- *)
  let oracle = Hashtbl.create (keyspace * 2) in
  let apply = function
    | Cw_insert (k, v) | Cw_update (k, v) | Cw_upsert (k, v) ->
        Hashtbl.replace oracle k v
    | Cw_remove k -> Hashtbl.remove oracle k
  in
  Array.iter (fun st -> Growable.iter (fun (_, op) -> apply op) st.cj1) workers;
  Array.iter
    (fun st ->
      let remaining = Array.copy n_replayed.(st.c_wid) in
      Growable.iter
        (fun (s, op) ->
          if remaining.(s) > 0 then begin
            apply op;
            remaining.(s) <- remaining.(s) - 1
          end)
        st.cj2)
    workers;
  let d2 = dur2.D.dur_driver in
  let str_of = function None -> "absent" | Some v -> Printf.sprintf "%#x" v in
  for k = 0 to keyspace - 1 do
    let want = Hashtbl.find_opt oracle k in
    let have = d2.Runner.read ~tid:checker_tid k in
    record (want = have) (fun () ->
        Printf.sprintf "crash: recovered state diverges at key %d: index %s, \
                        oracle %s" k (str_of have) (str_of want))
  done;

  (* --- the recovered store must accept and persist new writes --- *)
  Array.iter
    (fun st ->
      let k = st.c_wid * cfg.cc_keys_per_domain in
      if Hashtbl.mem oracle k then begin
        record (d2.Runner.remove ~tid:checker_tid k) (fun () ->
            Printf.sprintf "crash: post-recovery remove of key %d refused" k);
        Hashtbl.remove oracle k
      end;
      let v = value_of k 0xBEEF in
      record (d2.Runner.insert ~tid:checker_tid k v) (fun () ->
          Printf.sprintf "crash: post-recovery insert of key %d refused" k);
      Hashtbl.replace oracle k v)
    workers;
  d2.Runner.thread_done ~tid:checker_tid;

  (* --- checkpoint, clean reopen: same state, empty WAL --- *)
  dur2.D.dur_checkpoint ~tid:checker_tid ();
  dur2.D.dur_close ();
  let dur3 = open_durable () in
  let stats3 = dur3.D.dur_stats in
  record
    (stats3.Pagestore.Store.rs_wal_ops = 0)
    (fun () ->
      Printf.sprintf "crash: WAL not empty after checkpoint (replayed %d ops)"
        stats3.Pagestore.Store.rs_wal_ops);
  record
    (stats3.Pagestore.Store.rs_snapshot_items = Hashtbl.length oracle)
    (fun () ->
      Printf.sprintf
        "crash: clean reopen loaded %d items, oracle holds %d"
        stats3.Pagestore.Store.rs_snapshot_items (Hashtbl.length oracle));
  let d3 = dur3.D.dur_driver in
  for k = 0 to keyspace - 1 do
    let want = Hashtbl.find_opt oracle k in
    let have = d3.Runner.read ~tid:checker_tid k in
    record (want = have) (fun () ->
        Printf.sprintf "crash: clean reopen diverges at key %d: index %s, \
                        oracle %s" k (str_of have) (str_of want))
  done;
  d3.Runner.thread_done ~tid:checker_tid;
  dur3.D.dur_close ();

  let journaled =
    Array.fold_left
      (fun acc st -> acc + Growable.length st.cj1 + Growable.length st.cj2)
      0 workers
  in
  ( journaled,
    total_replayed,
    stats2.Pagestore.Store.rs_truncated_bytes,
    stats2.Pagestore.Store.rs_dropped_segments )

let run_crash_recovery (cfg : crash_config) : crash_report =
  if cfg.cc_domains < 1 then
    invalid_arg "Bw_stress.run_crash_recovery: domains < 1";
  if cfg.cc_rounds < 1 then
    invalid_arg "Bw_stress.run_crash_recovery: rounds < 1";
  if cfg.cc_dir = "" || cfg.cc_dir = "/" then
    invalid_arg "Bw_stress.run_crash_recovery: refusing dir";
  let violations = ref [] in
  let n_violations = ref 0 in
  let checks = ref 0 in
  let record cond msg =
    incr checks;
    if not cond then begin
      incr n_violations;
      if !n_violations <= max_reported_violations then
        violations := msg () :: !violations
    end
  in
  let ops = ref 0
  and replayed = ref 0
  and torn = ref 0
  and dropped = ref 0 in
  for round = 0 to cfg.cc_rounds - 1 do
    let j, r, t, d =
      run_crash_round cfg ~seed:(cfg.cc_seed + (round * 1009)) ~record
    in
    ops := !ops + j;
    replayed := !replayed + r;
    torn := !torn + t;
    dropped := !dropped + d;
    if cfg.cc_verbose then
      Printf.printf
        "crash round %d/%d: %d writes, %d replayed, torn %dB, %d dropped\n%!"
        (round + 1) cfg.cc_rounds j r t d
  done;
  Pagestore.Store.rm_rf cfg.cc_dir;
  {
    cr_rounds = cfg.cc_rounds;
    cr_ops = !ops;
    cr_replayed = !replayed;
    cr_torn_bytes = !torn;
    cr_dropped_segments = !dropped;
    cr_checks = !checks;
    cr_violations = List.rev !violations;
  }
