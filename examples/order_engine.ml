(* A miniature OLTP storage engine — the setting the paper's introduction
   motivates (the Bw-Tree indexes SQL Server's in-memory Hekaton engine).

   One table of orders lives in a row store; three OpenBw-Tree indexes
   serve the access paths:

     primary   : order id        -> row slot   (unique)
     customers : customer id     -> row slot   (non-unique, §3.1)
     clock     : order timestamp -> row slot   (unique, range-scanned)

   The engine runs a concurrent mixed workload (new orders, cancellations,
   customer lookups, time-window reports) across worker domains, then
   checkpoints all state through the log-structured page store and
   recovers it — index rebuild included.

   Run with: dune exec examples/order_engine.exe *)

module Idx = Bwtree.Make (Index_iface.Int_key) (Index_iface.Int_value)
module Cp = Pagestore.Checkpoint.Make (Pagestore.Codec.Int) (Idx)

type order = {
  id : int;
  customer : int;
  placed_at : int;
  amount : int;
  mutable cancelled : bool;
}

type engine = {
  rows : order option array;
  next_slot : int Atomic.t;
  primary : Idx.t;
  customers : Idx.t;
  clock : Idx.t;
  ticker : int Atomic.t;  (* monotonic timestamp source *)
}

let create_engine ~capacity =
  {
    rows = Array.make capacity None;
    next_slot = Atomic.make 0;
    primary = Idx.create ();
    customers =
      Idx.create ~config:(Bwtree.Config.make ~unique_keys:false ()) ();
    clock = Idx.create ();
    ticker = Atomic.make 0;
  }

(* --- transactions (single-record; indexes are individually atomic) --- *)

let new_order e ~tid ~id ~customer ~amount =
  let slot = Atomic.fetch_and_add e.next_slot 1 in
  let placed_at = Atomic.fetch_and_add e.ticker 1 in
  e.rows.(slot) <- Some { id; customer; placed_at; amount; cancelled = false };
  if not (Idx.insert e.primary ~tid id slot) then begin
    (* duplicate order id: abandon the row (no index points at it) *)
    e.rows.(slot) <- None;
    false
  end
  else begin
    ignore (Idx.insert e.customers ~tid customer slot);
    ignore (Idx.insert e.clock ~tid placed_at slot);
    true
  end

let cancel_order e ~tid ~id =
  match Idx.lookup e.primary ~tid id with
  | [ slot ] -> (
      match e.rows.(slot) with
      | Some row when not row.cancelled ->
          row.cancelled <- true;
          true
      | _ -> false)
  | _ -> false

let customer_orders e ~tid ~customer =
  Idx.lookup e.customers ~tid customer
  |> List.filter_map (fun slot -> e.rows.(slot))
  |> List.filter (fun o -> not o.cancelled)

let revenue_between e ~tid ~t0 ~t1 =
  (* range scan on the clock index: the YCSB-E pattern with a predicate *)
  let it = Idx.Iterator.seek e.clock ~tid t0 in
  let total = ref 0 and count = ref 0 in
  let rec go () =
    match Idx.Iterator.current it with
    | Some (ts, slot) when ts < t1 ->
        (match e.rows.(slot) with
        | Some o when not o.cancelled ->
            total := !total + o.amount;
            incr count
        | _ -> ());
        Idx.Iterator.next it;
        go ()
    | _ -> ()
  in
  go ();
  (!count, !total)

let latest_orders e ~tid ~n =
  let it = Idx.Iterator.seek e.clock ~tid max_int in
  Idx.Iterator.prev it;
  let out = ref [] in
  let rec go remaining =
    if remaining > 0 then
      match Idx.Iterator.current it with
      | Some (_, slot) ->
          (match e.rows.(slot) with Some o -> out := o :: !out | None -> ());
          Idx.Iterator.prev it;
          go (remaining - 1)
      | None -> ()
  in
  go n;
  List.rev !out

(* --- the run --- *)

let () =
  let e = create_engine ~capacity:400_000 in
  let nthreads = 4 and per = 30_000 in

  (* concurrent mixed workload: each domain owns an order-id range *)
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init nthreads (fun tid ->
        Domain.spawn (fun () ->
            let rng = Bw_util.Rng.create ~seed:(Int64.of_int (tid + 1)) in
            for i = 1 to per do
              let id = (tid * 1_000_000) + i in
              match Bw_util.Rng.next_int rng 10 with
              | 0 | 1 | 2 | 3 | 4 | 5 ->
                  ignore
                    (new_order e ~tid ~id
                       ~customer:(Bw_util.Rng.next_int rng 5_000)
                       ~amount:(1 + Bw_util.Rng.next_int rng 500))
              | 6 ->
                  ignore
                    (cancel_order e ~tid
                       ~id:((tid * 1_000_000) + 1 + Bw_util.Rng.next_int rng i))
              | 7 | 8 ->
                  ignore
                    (customer_orders e ~tid
                       ~customer:(Bw_util.Rng.next_int rng 5_000))
              | _ ->
                  let t1 = Atomic.get e.ticker in
                  ignore (revenue_between e ~tid ~t0:(max 0 (t1 - 500)) ~t1)
            done;
            Idx.quiesce e.primary ~tid;
            Idx.quiesce e.customers ~tid;
            Idx.quiesce e.clock ~tid))
  in
  List.iter Domain.join workers;
  let dt = Unix.gettimeofday () -. t0 in
  let live = Idx.cardinal e.primary in
  Printf.printf
    "mixed workload: %d txns across %d domains in %.2fs (%.0f ktxn/s); %d \
     orders live\n"
    (nthreads * per) nthreads dt
    (float_of_int (nthreads * per) /. dt /. 1e3)
    live;
  Idx.verify_invariants e.primary;
  Idx.verify_invariants e.customers;
  Idx.verify_invariants e.clock;

  (* analytical queries *)
  let c, total =
    revenue_between e ~tid:0 ~t0:0 ~t1:(Atomic.get e.ticker)
  in
  Printf.printf "all-time: %d active orders, %d total revenue\n" c total;
  let top = latest_orders e ~tid:0 ~n:5 in
  Printf.printf "latest orders: %s\n"
    (String.concat ", "
       (List.map (fun o -> Printf.sprintf "#%d($%d)" o.id o.amount) top));

  (* durability: checkpoint all three indexes to one log; values are row
     slots, and rows themselves are paged as (slot -> packed order) pairs
     through a fourth, transient index *)
  let log = Pagestore.Log.create () in
  let pack o =
    (* 3 small fields packed into one int value for the demo *)
    (o.customer * 1_000_000_000)
    + (o.placed_at * 1_000)
    + (o.amount land 0x3FF)
  in
  let rows_idx = Idx.create () in
  Array.iteri
    (fun slot row ->
      match row with
      | Some o when not o.cancelled -> ignore (Idx.insert rows_idx slot (pack o))
      | _ -> ())
    e.rows;
  let roots =
    List.map
      (fun idx -> (Cp.save idx log).Cp.sv_manifest)
      [ e.primary; e.customers; e.clock; rows_idx ]
  in
  Printf.printf "checkpointed 4 indexes: %.2f MB in %d segments\n"
    (float_of_int (Pagestore.Log.bytes_used log) /. 1048576.)
    (Pagestore.Log.segment_count log);

  (* recovery drill: each index is restored under its own configuration
     (the customers index needs non-unique keys or its duplicates would
     be refused — Checkpoint.load checks the restored count and fails
     loudly on such a mismatch) *)
  let configs =
    [
      Bwtree.default_config;
      (Bwtree.Config.make ~unique_keys:false ());
      Bwtree.default_config;
      Bwtree.default_config;
    ]
  in
  let recovered =
    List.map2 (fun root config -> Cp.load ~config log root) roots configs
  in
  (match recovered with
  | [ p; c'; clk; r ] ->
      assert (Idx.scan_all p () = Idx.scan_all e.primary ());
      assert
        (List.sort compare (Idx.scan_all c' ())
        = List.sort compare (Idx.scan_all e.customers ()));
      assert (Idx.scan_all clk () = Idx.scan_all e.clock ());
      Printf.printf "recovery drill passed: %d/%d/%d/%d entries rebuilt\n"
        (Idx.cardinal p) (Idx.cardinal c') (Idx.cardinal clk) (Idx.cardinal r)
  | _ -> assert false)
