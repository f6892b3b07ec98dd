(* Tests for the epoch-based reclamation substrate: both the centralized
   (original Bw-Tree) and decentralized (OpenBw-Tree) schemes. *)

let obj () = Obj.repr (ref 0)

let stats_check e ~retired ~reclaimed =
  let s = Epoch.stats e in
  Alcotest.(check int) "retired" retired s.retired;
  Alcotest.(check int) "reclaimed" reclaimed s.reclaimed

(* --- centralized --- *)

let test_c_basic_reclaim () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  Epoch.op_begin e ~tid:0;
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:0;
  stats_check e ~retired:1 ~reclaimed:0;
  (* one advance unchains the epoch, the drain needs all members out *)
  Epoch.advance e;
  Epoch.advance e;
  stats_check e ~retired:1 ~reclaimed:1

let test_c_blocked_by_reader () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  Epoch.op_begin e ~tid:0;
  (* tid 1 retires while tid 0 still holds the epoch *)
  Epoch.op_begin e ~tid:1;
  Epoch.retire e ~tid:1 (obj ());
  Epoch.op_end e ~tid:1;
  Epoch.advance e;
  Epoch.advance e;
  Alcotest.(check int) "held back" 0 (Epoch.stats e).reclaimed;
  Epoch.op_end e ~tid:0;
  Epoch.advance e;
  Alcotest.(check int) "released" 1 (Epoch.stats e).reclaimed

let test_c_multiple_epochs () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  for i = 1 to 10 do
    Epoch.op_begin e ~tid:0;
    Epoch.retire e ~tid:0 (obj ());
    Epoch.op_end e ~tid:0;
    Epoch.advance e;
    ignore i
  done;
  Epoch.advance e;
  stats_check e ~retired:10 ~reclaimed:10

let test_c_enters_counted () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  for _ = 1 to 5 do
    Epoch.op_begin e ~tid:0;
    Epoch.op_end e ~tid:0
  done;
  Alcotest.(check int) "enters" 5 (Epoch.stats e).enters

(* --- decentralized --- *)

let test_d_basic_reclaim () =
  let e =
    Epoch.create ~scheme:Epoch.Decentralized ~max_threads:2 ~gc_threshold:4 ()
  in
  Epoch.op_begin e ~tid:0;
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:0;
  (* nothing reclaimed yet: tag == watermark *)
  Alcotest.(check int) "pending" 1 (Epoch.pending e);
  Epoch.advance e;
  Epoch.op_begin e ~tid:0;
  Epoch.op_end e ~tid:0;
  Epoch.flush e;
  Alcotest.(check int) "drained" 0 (Epoch.pending e)

let test_d_blocked_by_stale_reader () =
  let e =
    Epoch.create ~scheme:Epoch.Decentralized ~max_threads:2 ~gc_threshold:2 ()
  in
  (* tid 1 publishes an old epoch and stays there *)
  Epoch.op_begin e ~tid:1;
  Epoch.advance e;
  Epoch.op_begin e ~tid:0;
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:0;
  Epoch.advance e;
  (* tid 1's stale published epoch pins the watermark *)
  Epoch.op_begin e ~tid:0;
  Epoch.op_end e ~tid:0;
  let s = Epoch.stats e in
  Alcotest.(check int) "held back" 0 s.reclaimed;
  (* after tid 1 quiesces, reclamation can proceed *)
  Epoch.quiesce e ~tid:1;
  Epoch.advance e;
  Epoch.flush e;
  Alcotest.(check int) "released" 0 (Epoch.pending e)

let test_d_threshold_trigger () =
  let e =
    Epoch.create ~scheme:Epoch.Decentralized ~max_threads:1 ~gc_threshold:8 ()
  in
  for _ = 1 to 100 do
    Epoch.op_begin e ~tid:0;
    Epoch.retire e ~tid:0 (obj ());
    Epoch.op_end e ~tid:0
  done;
  Epoch.quiesce e ~tid:0;
  (* the self-advancing collector must have freed most of the bag without
     any explicit advance call *)
  Alcotest.(check bool) "collector made progress" true
    ((Epoch.stats e).reclaimed > 50)

let test_d_quiesce_unblocks () =
  let e =
    Epoch.create ~scheme:Epoch.Decentralized ~max_threads:3 ~gc_threshold:1 ()
  in
  Epoch.op_begin e ~tid:2;
  Epoch.quiesce e ~tid:2;
  Epoch.op_begin e ~tid:0;
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:0;
  Epoch.quiesce e ~tid:0;
  Epoch.advance e;
  Epoch.flush e;
  Alcotest.(check int) "drained" 0 (Epoch.pending e)

(* --- reclamation-race regressions --- *)

(* retire vs. advance: the collector drains the epoch retire has chosen
   between epoch selection and garbage publication. Pre-fix, the object
   was parked on the dead epoch's list and leaked forever; the fix
   validates against [head] after publishing and re-parks on the fresh
   current epoch. The test drives the exact schedule through the
   [test_retire_window] hook, so it is deterministic. *)
let test_c_retire_advance_race () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  let fired = ref false in
  Epoch.test_retire_window :=
    (fun () ->
      if not !fired then begin
        fired := true;
        Epoch.advance e;
        Epoch.advance e
      end);
  Fun.protect ~finally:(fun () -> Epoch.test_retire_window := fun () -> ())
  @@ fun () ->
  Epoch.retire e ~tid:0 (obj ());
  Epoch.advance e;
  Epoch.advance e;
  Alcotest.(check int) "not stranded in a dead epoch" 0 (Epoch.pending e)

(* same window, but with the target epoch still undrained when retire
   validates: the re-park must steal the garbage back without losing or
   double-counting anything *)
let test_c_retire_repark_preserves_garbage () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  let fired = ref false in
  Epoch.test_retire_window :=
    (fun () ->
      if not !fired then begin
        fired := true;
        (* pin the epoch retire chose so the advances unchain it into the
           deferred queue without draining it *)
        Epoch.op_begin e ~tid:1;
        Epoch.advance e;
        Epoch.advance e
      end);
  Fun.protect ~finally:(fun () -> Epoch.test_retire_window := fun () -> ())
  @@ fun () ->
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:1;
  Epoch.advance e;
  Epoch.advance e;
  stats_check e ~retired:1 ~reclaimed:1

(* reclamation stats are bumped by the background advancer and foreground
   flush callers concurrently; pre-fix both wrote the same per-thread row
   non-atomically, losing updates so [pending] never returned to zero *)
let test_c_stats_concurrent_advancers () =
  let retirers = 2 and advancers = 2 in
  let retire_iters = 20_000 in
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:retirers () in
  let domains =
    Array.init (retirers + advancers) (fun i ->
        Domain.spawn (fun () ->
            if i < retirers then
              for _ = 1 to retire_iters do
                Epoch.op_begin e ~tid:i;
                Epoch.retire e ~tid:i (obj ());
                Epoch.op_end e ~tid:i
              done
            else
              for _ = 1 to 2_000 do
                Epoch.advance e
              done))
  in
  Array.iter Domain.join domains;
  Epoch.flush e;
  let s = Epoch.stats e in
  Alcotest.(check int) "all retired" (retirers * retire_iters) s.retired;
  Alcotest.(check int) "exact reclaim accounting" 0 (Epoch.pending e)

(* op exit must release the watermark: pre-fix, [op_end] re-published the
   current global epoch, so a thread that completed its last operation
   pinned every other thread's bags forever unless it explicitly
   quiesced *)
let test_d_end_releases_watermark () =
  let e =
    Epoch.create ~scheme:Epoch.Decentralized ~max_threads:2
      ~gc_threshold:1024 ()
  in
  (* tid 0 finishes its last operation and never calls quiesce *)
  Epoch.op_begin e ~tid:0;
  Epoch.op_end e ~tid:0;
  Epoch.op_begin e ~tid:1;
  Epoch.retire e ~tid:1 (obj ());
  Epoch.op_end e ~tid:1;
  Epoch.advance e;
  Epoch.flush e;
  Alcotest.(check int) "watermark released at op exit" 0 (Epoch.pending e)

(* --- disabled --- *)

let test_disabled () =
  let e = Epoch.create ~scheme:Epoch.Disabled ~max_threads:1 () in
  Epoch.op_begin e ~tid:0;
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:0;
  Alcotest.(check int) "immediately reclaimed" 0 (Epoch.pending e)

(* --- background thread --- *)

let test_background_thread () =
  let e = Epoch.create ~scheme:Epoch.Centralized ~max_threads:2 () in
  Epoch.start_background e ~interval_s:0.005;
  Epoch.op_begin e ~tid:0;
  Epoch.retire e ~tid:0 (obj ());
  Epoch.op_end e ~tid:0;
  Unix.sleepf 0.05;
  Epoch.stop_background e;
  Alcotest.(check bool) "advanced" true ((Epoch.stats e).epochs_advanced > 0);
  Alcotest.(check int) "reclaimed by background" 0 (Epoch.pending e)

(* --- concurrent stress: objects are never reclaimed while a reader can
   still see them --- *)

let concurrent_stress scheme () =
  let nthreads = 4 in
  let e = Epoch.create ~scheme ~max_threads:nthreads ~gc_threshold:16 () in
  Epoch.start_background e ~interval_s:0.001;
  let iterations = 3_000 in
  (* each cell is "freed" by setting it to -1 at retire time being unsafe;
     instead we check the counting invariants *)
  let domains =
    Array.init nthreads (fun tid ->
        Domain.spawn (fun () ->
            for _ = 1 to iterations do
              Epoch.op_begin e ~tid;
              Epoch.retire e ~tid (obj ());
              Epoch.op_end e ~tid
            done;
            Epoch.quiesce e ~tid))
  in
  Array.iter Domain.join domains;
  Epoch.stop_background e;
  Epoch.flush e;
  Epoch.flush e;
  let s = Epoch.stats e in
  Alcotest.(check int) "all retired" (nthreads * iterations) s.retired;
  Alcotest.(check bool) "reclaimed <= retired" true (s.reclaimed <= s.retired);
  Alcotest.(check int) "fully drained at quiescence" 0 (Epoch.pending e)

(* --- per-domain layout --- *)

let fields o = Array.init (Obj.size o) (Obj.field o)

(* Every word that each tid's operations write (the statistics, the
   centralized entry slot, the decentralized published epoch) and the
   global epoch sit in {!Bw_util.Padded} blocks: each block is exactly a
   padded array of its cells, and the words that an op, a retirement, an
   advance or a collection changed all lie on cell lines, never in the
   padding between or around them. *)
let test_padded_layout scheme () =
  let module Pd = Bw_util.Padded in
  let n = 3 in
  let e = Epoch.create ~scheme ~max_threads:n ~gc_threshold:2 () in
  let blocks = Epoch.padded_blocks e in
  let names = List.map fst blocks in
  let expect =
    match scheme with
    | Epoch.Centralized -> [ "counts"; "entered" ]
    | Epoch.Decentralized -> [ "counts"; "global"; "local" ]
    | Epoch.Disabled -> [ "counts" ]
  in
  Alcotest.(check (list string)) "padded blocks" expect names;
  let before = List.map (fun (_, b) -> fields b) blocks in
  for round = 1 to 3 do
    for tid = 0 to n - 1 do
      Epoch.op_begin e ~tid;
      Epoch.retire e ~tid (obj ());
      Epoch.retire e ~tid (obj ());
      Epoch.op_end e ~tid
    done;
    if round = 2 then Epoch.advance e
  done;
  (* leave each tid inside an op, so its published state is live *)
  for tid = 0 to n - 1 do
    Epoch.op_begin e ~tid
  done;
  List.iter2
    (fun (name, b) old ->
      let cells = if name = "global" then 1 else n in
      Alcotest.(check int) (name ^ ": a padded array") (Pd.length cells)
        (Obj.size b);
      let on_a_line i =
        List.exists
          (fun c -> i >= Pd.index c && i < Pd.index c + Pd.line_words)
          (List.init cells Fun.id)
      in
      let changed = ref 0 in
      Array.iteri
        (fun i w ->
          if Obj.field b i != w then begin
            incr changed;
            if not (on_a_line i) then
              Alcotest.failf "%s: word %d, in the padding, was written" name
                i
          end)
        old;
      if !changed = 0 then Alcotest.failf "%s: no word was written" name)
    blocks before;
  for tid = 0 to n - 1 do
    Epoch.op_end e ~tid
  done

let () =
  Alcotest.run "epoch"
    [
      ( "centralized",
        [
          Alcotest.test_case "basic reclaim" `Quick test_c_basic_reclaim;
          Alcotest.test_case "blocked by reader" `Quick test_c_blocked_by_reader;
          Alcotest.test_case "multiple epochs" `Quick test_c_multiple_epochs;
          Alcotest.test_case "enter count" `Quick test_c_enters_counted;
        ] );
      ( "decentralized",
        [
          Alcotest.test_case "basic reclaim" `Quick test_d_basic_reclaim;
          Alcotest.test_case "blocked by stale reader" `Quick
            test_d_blocked_by_stale_reader;
          Alcotest.test_case "threshold trigger" `Quick test_d_threshold_trigger;
          Alcotest.test_case "quiesce unblocks" `Quick test_d_quiesce_unblocks;
        ] );
      ( "reclamation races",
        [
          Alcotest.test_case "retire vs advance (dead epoch)" `Quick
            test_c_retire_advance_race;
          Alcotest.test_case "retire re-park preserves garbage" `Quick
            test_c_retire_repark_preserves_garbage;
          Alcotest.test_case "stats survive concurrent advancers" `Slow
            test_c_stats_concurrent_advancers;
          Alcotest.test_case "op exit releases watermark" `Quick
            test_d_end_releases_watermark;
        ] );
      ("disabled", [ Alcotest.test_case "noop" `Quick test_disabled ]);
      ( "layout",
        [
          Alcotest.test_case "centralized per-tid words padded" `Quick
            (test_padded_layout Epoch.Centralized);
          Alcotest.test_case "decentralized per-tid words padded" `Quick
            (test_padded_layout Epoch.Decentralized);
          Alcotest.test_case "disabled per-tid words padded" `Quick
            (test_padded_layout Epoch.Disabled);
        ] );
      ( "background",
        [ Alcotest.test_case "advances and reclaims" `Quick test_background_thread ]
      );
      ( "stress",
        [
          Alcotest.test_case "centralized concurrent" `Slow
            (concurrent_stress Epoch.Centralized);
          Alcotest.test_case "decentralized concurrent" `Slow
            (concurrent_stress Epoch.Decentralized);
        ] );
    ]
