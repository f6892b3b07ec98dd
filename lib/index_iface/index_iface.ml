(** Shared contracts for all six indexes under comparison (§6).

    Every index — OpenBw-Tree, baseline Bw-Tree, SkipList, Masstree,
    B+Tree-OLC and ART-OLC — is driven through one {!driver} record, so
    the workload harness, the tests and the benchmarks treat them
    uniformly. *)

(** Values are 64-bit integers standing in for tuple pointers (§5.1). *)
module Int_value = struct
  type t = int

  let equal = Int.equal
  let pp = Format.pp_print_int
end

(* ------------------------------------------------------------------ *)
(* Drivers: a uniform closure-record view of one index instance        *)
(* ------------------------------------------------------------------ *)

(** One operation of a multi-op batch, in driver terms (unique-key
    point ops; [Bop_remove] needs no value, like [driver.remove]). *)
type 'k batch_op =
  | Bop_insert of 'k * int
  | Bop_update of 'k * int
  | Bop_upsert of 'k * int
  | Bop_remove of 'k
  | Bop_read of 'k

type batch_result =
  | Bres_applied of bool  (** writes: the point-op boolean *)
  | Bres_value of int option  (** [Bop_read]: the visible value *)
  | Bres_bad_key
      (** backends only: this slot's binary key failed to decode; the
          rest of the batch still executed *)

(** A first-class index instance: the uniform closure-record view that
    the harness, the benchmarks, the stress checker, the serving
    layer and the shard router all consume. Anything that satisfies this
    record — a single tree, a range-partitioned forest of trees
    ({!Bw_shard.route}), an instrumented wrapper — is interchangeable
    everywhere a driver is accepted. [tid] is the dense worker-thread id
    used for striped statistics and epoch membership. *)
type 'k driver = {
  name : string;
  insert : tid:int -> 'k -> int -> bool;
      (** [false] if the key was already present (unique-key semantics). *)
  read : tid:int -> 'k -> int option;
  update : tid:int -> 'k -> int -> bool;
  remove : tid:int -> 'k -> bool;
  scan : tid:int -> 'k -> n:int -> ('k -> int -> unit) -> int;
      (** [scan ~tid k ~n visit] walks up to [n] items starting at the
          first key >= [k] in key order, calling [visit key value] on
          each, and returns the number visited (the YCSB-E operation).
          Under optimistic concurrency an attempt that observes
          interference is retried; [visit] is called exactly once per
          reported item, after the attempt that produced it validated. *)
  batch : (tid:int -> 'k batch_op array -> batch_result array) option;
      (** Amortized multi-op execution, one result per op in submission
          order, equivalent to applying the ops sequentially. [None]
          (every index without a native batch path) makes {!exec_batch}
          fall back to the point ops, so batch callers need no special
          case per index. *)
  start_aux : unit -> unit;
      (** Start any auxiliary threads the design needs (epoch advancer,
          skip-list tower builder). Idempotent. *)
  stop_aux : unit -> unit;
  thread_done : tid:int -> unit;
      (** Worker [tid] will issue no more operations (releases its
          epoch). *)
  memory_words : unit -> int;
      (** Live heap words reachable from the index, for the Fig. 15
          memory comparison. *)
}

let batch_op_key = function
  | Bop_insert (k, _)
  | Bop_update (k, _)
  | Bop_upsert (k, _)
  | Bop_remove k
  | Bop_read k ->
      k

let map_batch_op f = function
  | Bop_insert (k, v) -> Bop_insert (f k, v)
  | Bop_update (k, v) -> Bop_update (f k, v)
  | Bop_upsert (k, v) -> Bop_upsert (f k, v)
  | Bop_remove k -> Bop_remove (f k)
  | Bop_read k -> Bop_read (f k)

(* Upsert in point-op terms: retry until either arm wins, since between
   a failed update (absent) and the insert a concurrent writer may
   create the key, and vice versa. *)
let rec driver_upsert (d : 'k driver) ~tid k v =
  if d.update ~tid k v then true
  else if d.insert ~tid k v then true
  else driver_upsert d ~tid k v

let run_batch_seq (d : 'k driver) ~tid (ops : 'k batch_op array) :
    batch_result array =
  (* Bw_util.Arr: a batch-sized Array.map would force a minor
     collection per batch (young first element seeding a major-heap
     result array). *)
  Bw_util.Arr.map
    (function
      | Bop_insert (k, v) -> Bres_applied (d.insert ~tid k v)
      | Bop_update (k, v) -> Bres_applied (d.update ~tid k v)
      | Bop_upsert (k, v) -> Bres_applied (driver_upsert d ~tid k v)
      | Bop_remove k -> Bres_applied (d.remove ~tid k)
      | Bop_read k -> Bres_value (d.read ~tid k))
    ops

let exec_batch (d : 'k driver) ~tid (ops : 'k batch_op array) :
    batch_result array =
  match d.batch with
  | Some run -> run ~tid ops
  | None -> run_batch_seq d ~tid ops

(* ------------------------------------------------------------------ *)
(* Backends: the monomorphic binary-keyed view                         *)
(* ------------------------------------------------------------------ *)

type backend = string driver
(** A driver whose keys travel in their binary-comparable encoding
    ({!Bw_util.Key_codec}). This is the serving layer's contract: the
    wire protocol carries binary keys, so a backend closes over a
    concrete driver plus its key codec and the server's event loop never
    needs to be generic over the key type. *)

exception Bad_key of string
(** A syntactically invalid binary key reached a backend — a caller
    (protocol) error, not an index fault. *)

exception Read_only
(** A write reached an index that only serves reads — a following
    replica that has not been promoted. The server answers ERR; the
    index is untouched. *)

let backend_of_driver ?decode_scan_key ~(decode_key : string -> 'k)
    ~(encode_key : 'k -> string) (d : 'k driver) : backend =
  let key s =
    (* Key_codec decoders fail with Invalid_argument (and Failure from
       Scanf-style codecs); anything else — Out_of_memory, assertion
       failures inside the codec — is a real fault and must not be
       swallowed as a protocol error. *)
    match decode_key s with
    | k -> k
    | exception (Invalid_argument _ | Failure _) -> raise (Bad_key s)
  in
  (* A scan's start key is a lower bound over the binary key order, not
     necessarily a well-formed key: range boundaries and continuation
     cursors (last_key ^ "\000") fall between encoded keys. A codec may
     supply [decode_scan_key] mapping any binary bound to the smallest
     key at or above it ([None] = past every key, i.e. an empty scan). *)
  let scan_key =
    match decode_scan_key with
    | Some f -> f
    | None -> fun s -> Some (key s)
  in
  {
    name = d.name;
    insert = (fun ~tid k v -> d.insert ~tid (key k) v);
    read = (fun ~tid k -> d.read ~tid (key k));
    update = (fun ~tid k v -> d.update ~tid (key k) v);
    remove = (fun ~tid k -> d.remove ~tid (key k));
    scan =
      (fun ~tid k ~n visit ->
        match scan_key k with
        | Some k -> d.scan ~tid k ~n (fun k v -> visit (encode_key k) v)
        | None -> 0);
    batch =
      Option.map
        (fun run ~tid (ops : string batch_op array) ->
          (* Decode per slot so one undecodable key answers
             [Bres_bad_key] in place instead of poisoning the batch. *)
          let dec =
            Bw_util.Arr.map
              (fun op ->
                match map_batch_op key op with
                | op -> Some op
                | exception Bad_key _ -> None)
              ops
          in
          let good =
            Array.fold_left
              (fun a -> function Some _ -> a + 1 | None -> a)
              0 dec
          in
          if good = Array.length ops then
            run ~tid
              (Bw_util.Arr.map
                 (function Some op -> op | None -> assert false)
                 dec)
          else begin
            let pairs =
              List.filter_map
                (fun (i, op) -> Option.map (fun op -> (i, op)) op)
                (List.mapi (fun i op -> (i, op)) (Array.to_list dec))
            in
            let inner = Bw_util.Arr.of_list (List.map snd pairs) in
            let sub = run ~tid inner in
            let results = Array.make (Array.length ops) Bres_bad_key in
            List.iteri (fun j (i, _) -> results.(i) <- sub.(j)) pairs;
            results
          end)
        d.batch;
    start_aux = d.start_aux;
    stop_aux = d.stop_aux;
    thread_done = d.thread_done;
    memory_words = d.memory_words;
  }

(** 64-bit integer keys (Mono-Int / Rand-Int workloads). *)
module Int_key = struct
  type t = int

  let compare = Int.compare

  (* The search kernels: on an [int array] the comparisons compile to
     inline integer compares. *)
  let lower_bound_in (a : int array) (k : int) ~lo ~hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get a mid < k then lo := mid + 1 else hi := mid
    done;
    !lo

  let upper_bound_in (a : int array) (k : int) ~lo ~hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array.unsafe_get a mid <= k then lo := mid + 1 else hi := mid
    done;
    !lo

  let to_binary = Bw_util.Key_codec.of_int
  let of_binary = Bw_util.Key_codec.to_int
  let dummy = 0
  let pp = Format.pp_print_int

  (** The serving view of an int-keyed driver. *)
  let backend (d : t driver) : backend =
    backend_of_driver ~decode_scan_key:Bw_util.Key_codec.int_at_least
      ~decode_key:of_binary ~encode_key:to_binary d
end

(** String keys (Email workload: fixed 32-byte strings). *)
module String_key = struct
  type t = string

  let compare = String.compare

  (* The search kernels call [String.compare] directly: no closure. *)
  let lower_bound_in (a : string array) k ~lo ~hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if String.compare (Array.unsafe_get a mid) k < 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let upper_bound_in (a : string array) k ~lo ~hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if String.compare (Array.unsafe_get a mid) k <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo

  let to_binary = Bw_util.Key_codec.of_string
  let of_binary s = s
  let dummy = ""
  let pp = Format.pp_print_string

  (** The serving view of a string-keyed driver: raw strings already are
      their binary-comparable encoding. *)
  let backend (d : t driver) : backend =
    backend_of_driver ~decode_key:of_binary ~encode_key:to_binary d
end
