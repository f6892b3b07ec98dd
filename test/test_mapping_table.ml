(* Tests for the lock-free mapping table (indirection layer). *)

module MT = Mapping_table

let test_allocate_get () =
  let t = MT.create ~dummy:"" () in
  let a = MT.allocate t "a" and b = MT.allocate t "b" in
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Alcotest.(check string) "get a" "a" (MT.get t a);
  Alcotest.(check string) "get b" "b" (MT.get t b)

let test_cas_semantics () =
  let t = MT.create ~dummy:"" () in
  let id = MT.allocate t "v1" in
  let v1 = MT.get t id in
  Alcotest.(check bool) "cas succeeds" true (MT.cas t id ~expect:v1 ~repl:"v2");
  Alcotest.(check string) "swung" "v2" (MT.get t id);
  Alcotest.(check bool) "stale cas fails" false
    (MT.cas t id ~expect:v1 ~repl:"v3");
  Alcotest.(check string) "unchanged" "v2" (MT.get t id)

let test_cas_physical_equality () =
  (* two structurally-equal but physically-distinct strings must not
     satisfy the CaS expectation *)
  let t = MT.create ~dummy:"" () in
  let v = String.make 3 'x' in
  let id = MT.allocate t v in
  let clone = String.init 3 (fun _ -> 'x') in
  Alcotest.(check bool) "structural twin rejected" false
    (MT.cas t id ~expect:clone ~repl:"y")

let test_cas_unsafe () =
  let t = MT.create ~dummy:"" () in
  let id = MT.allocate t "v1" in
  let v1 = MT.get t id in
  Alcotest.(check bool) "unsafe cas works single-threaded" true
    (MT.cas_unsafe t id ~expect:v1 ~repl:"v2");
  Alcotest.(check bool) "unsafe stale fails" false
    (MT.cas_unsafe t id ~expect:v1 ~repl:"v3")

let test_lazy_chunks () =
  let t = MT.create ~chunk_bits:4 ~dir_bits:4 ~dummy:(-1) () in
  Alcotest.(check int) "no chunks yet" 0 (MT.chunks_allocated t);
  ignore (MT.allocate t 1);
  Alcotest.(check int) "first chunk faulted" 1 (MT.chunks_allocated t);
  (* skip into a high id via set *)
  MT.set t 200 42;
  Alcotest.(check int) "second chunk faulted" 2 (MT.chunks_allocated t);
  Alcotest.(check int) "sparse read" 42 (MT.get t 200);
  Alcotest.(check int) "untouched cell reads dummy" (-1) (MT.get t 100);
  Alcotest.(check int) "capacity" 256 (MT.capacity t)

let test_out_of_range () =
  let t = MT.create ~chunk_bits:4 ~dir_bits:4 ~dummy:0 () in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Mapping_table: id out of range") (fun () ->
      ignore (MT.get t (-1)));
  Alcotest.check_raises "beyond capacity"
    (Invalid_argument "Mapping_table: id out of range") (fun () ->
      ignore (MT.get t 256))

let test_free_list_reuse () =
  let t = MT.create ~dummy:0 () in
  let a = MT.allocate t 1 in
  let b = MT.allocate t 2 in
  MT.free_id t a;
  Alcotest.(check int) "free list" 1 (MT.free_list_length t);
  let c = MT.allocate t 3 in
  Alcotest.(check int) "id recycled" a c;
  Alcotest.(check int) "free list drained" 0 (MT.free_list_length t);
  Alcotest.(check int) "other id intact" 2 (MT.get t b);
  Alcotest.(check int) "rebuild hint" 2 (MT.rebuild_capacity_hint t)

let test_concurrent_allocation () =
  let t = MT.create ~dummy:(-1) () in
  let nthreads = 4 and per = 5_000 in
  let ids = Array.make (nthreads * per) (-1) in
  let domains =
    Array.init nthreads (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ids.((tid * per) + i) <- MT.allocate t ((tid * per) + i)
            done))
  in
  Array.iter Domain.join domains;
  (* all ids distinct and readable *)
  let seen = Hashtbl.create (nthreads * per) in
  Array.iteri
    (fun slot id ->
      Alcotest.(check bool) "no duplicate id" false (Hashtbl.mem seen id);
      Hashtbl.add seen id ();
      Alcotest.(check int) "value readable" slot (MT.get t id))
    ids

let test_concurrent_cas_single_winner () =
  let t = MT.create ~dummy:0 () in
  let id = MT.allocate t 100 in
  let expect = MT.get t id in
  let winners = Atomic.make 0 in
  let domains =
    Array.init 8 (fun tid ->
        Domain.spawn (fun () ->
            if MT.cas t id ~expect ~repl:(tid + 200) then
              ignore (Atomic.fetch_and_add winners 1)))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "exactly one winner" 1 (Atomic.get winners);
  Alcotest.(check bool) "final value from a winner" true (MT.get t id >= 200)

(* Two-domain free/allocate race: the producer recycles ids straight off
   the free list while the consumer is still pushing others onto it, so
   free-list CaS retries happen constantly. A value installed by
   [allocate] must stay visible until its owner frees the id — pre-fix,
   [free_id]'s retry loop re-executed its dummy store, which could stomp
   the racing allocator's pointer. *)
let test_free_allocate_race () =
  let t = MT.create ~chunk_bits:8 ~dir_bits:8 ~dummy:(-1) () in
  let n = 30_000 in
  let handoff = Array.make n (-1) in
  let produced = Atomic.make 0 in
  let stomped = Atomic.make 0 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          let id = MT.allocate t i in
          if MT.get t id <> i then Atomic.incr stomped;
          handoff.(i) <- id;
          Atomic.incr produced
        done)
  in
  let consumer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while Atomic.get produced <= i do
            Domain.cpu_relax ()
          done;
          MT.free_id t handoff.(i)
        done)
  in
  Domain.join producer;
  Domain.join consumer;
  Alcotest.(check int) "no live cell stomped by a racing free" 0
    (Atomic.get stomped);
  (* every id was freed, so the free list alone accounts for the whole
     high-water mark *)
  Alcotest.(check int) "free list accounts for all ids"
    (MT.high_water t) (MT.free_list_length t)

(* four domains churning allocate/free against private live sets: ids must
   never be handed to two owners, live cells must keep their values, and
   quiesced accounting must balance *)
let test_churn_accounting () =
  let t = MT.create ~chunk_bits:8 ~dir_bits:8 ~dummy:(-1) () in
  let nthreads = 4 and iters = 20_000 and cap = 64 in
  let lives = Array.init nthreads (fun _ -> ref []) in
  let bad = Atomic.make 0 in
  let domains =
    Array.init nthreads (fun d ->
        Domain.spawn (fun () ->
            let live = lives.(d) in
            let count = ref 0 in
            let seed = ref (d + 1) in
            for i = 0 to iters - 1 do
              (* cheap deterministic per-domain chooser *)
              seed := (!seed * 48271) mod 0x7fffffff;
              match !live with
              | (id, v) :: rest when !count >= cap || !seed land 1 = 0 ->
                  if MT.get t id <> v then Atomic.incr bad;
                  MT.free_id t id;
                  live := rest;
                  decr count
              | _ ->
                  let v = (d * iters) + i in
                  let id = MT.allocate t v in
                  if MT.get t id <> v then Atomic.incr bad;
                  live := (id, v) :: !live;
                  incr count
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no stomped or lost cells" 0 (Atomic.get bad);
  let seen = Hashtbl.create 256 in
  let live_total = ref 0 in
  Array.iter
    (fun live ->
      List.iter
        (fun (id, v) ->
          incr live_total;
          Alcotest.(check bool) "id owned once" false (Hashtbl.mem seen id);
          Hashtbl.add seen id ();
          Alcotest.(check int) "live value intact" v (MT.get t id))
        !live)
    lives;
  Alcotest.(check int) "live + free = high water"
    (MT.high_water t)
    (!live_total + MT.free_list_length t)

(* Pay-per-use: a fresh table holds no chunk, and N allocated ids cost
   their one-word chunk slots and at most one partly-used chunk beyond
   that: no per-id box. *)
let test_footprint () =
  let words t = Obj.reachable_words (Obj.repr t) in
  let t = MT.create ~dummy:(-1) () in
  Alcotest.(check bool) "fresh table <= 64 words" true (words t <= 64);
  List.iter
    (fun n ->
      let t = MT.create ~dummy:(-1) () in
      for i = 1 to n do
        ignore (MT.allocate t i)
      done;
      let bound = n + (1 lsl 10) + 64 in
      if words t > bound then
        Alcotest.failf "%d ids: %d words > %d" n (words t) bound)
    [ 1; 1000; 1024; 1025; 20_000 ];
  (* a read or a failed cas stores nothing *)
  let t = MT.create ~chunk_bits:4 ~dir_bits:4 ~dummy:(-1) () in
  MT.set t 3 7;
  let w = words t in
  Alcotest.(check int) "hole reads dummy" (-1) (MT.get t 5);
  Alcotest.(check bool) "cas on a never-set id fails" false
    (MT.cas t 5 ~expect:(-1) ~repl:9);
  Alcotest.(check bool) "unsafe cas on a never-set id fails" false
    (MT.cas_unsafe t 5 ~expect:(-1) ~repl:9);
  Alcotest.(check int) "reads box nothing" w (words t);
  Alcotest.(check int) "still dummy" (-1) (MT.get t 5)

(* Four domains allocate through four-cell chunks, so every fourth id
   faults a chunk and copies the directory: 500 copy-and-CaS growths,
   with the four domains racing on the one directory pointer. *)
let test_concurrent_growth () =
  let t = MT.create ~chunk_bits:2 ~dir_bits:12 ~dummy:(-1) () in
  let nthreads = 4 and per = 500 in
  let ids = Array.make (nthreads * per) (-1) in
  let domains =
    Array.init nthreads (fun tid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ids.((tid * per) + i) <- MT.allocate t ((tid * per) + i)
            done))
  in
  Array.iter Domain.join domains;
  let seen = Hashtbl.create (nthreads * per) in
  Array.iteri
    (fun slot id ->
      Alcotest.(check bool) "no duplicate id" false (Hashtbl.mem seen id);
      Hashtbl.add seen id ();
      Alcotest.(check int) "value readable" slot (MT.get t id))
    ids;
  Alcotest.(check int) "one chunk per 4 ids"
    (((nthreads * per) + 3) / 4)
    (MT.chunks_allocated t)

let () =
  Alcotest.run "mapping_table"
    [
      ( "basic",
        [
          Alcotest.test_case "allocate/get" `Quick test_allocate_get;
          Alcotest.test_case "cas" `Quick test_cas_semantics;
          Alcotest.test_case "cas physical equality" `Quick
            test_cas_physical_equality;
          Alcotest.test_case "cas_unsafe" `Quick test_cas_unsafe;
        ] );
      ( "growth",
        [
          Alcotest.test_case "lazy chunks" `Quick test_lazy_chunks;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "id recycling" `Quick test_free_list_reuse;
          Alcotest.test_case "footprint" `Quick test_footprint;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "allocation" `Slow test_concurrent_allocation;
          Alcotest.test_case "single cas winner" `Quick
            test_concurrent_cas_single_winner;
          Alcotest.test_case "free/allocate race" `Slow
            test_free_allocate_race;
          Alcotest.test_case "churn accounting" `Slow test_churn_accounting;
          Alcotest.test_case "directory growth" `Slow test_concurrent_growth;
        ] );
    ]
