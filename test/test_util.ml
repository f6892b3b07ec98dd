(* Unit and property tests for the utility substrate: RNG, Zipf sampler,
   growable arrays, binary key codecs, statistics. *)

module Rng = Bw_util.Rng
module Zipf = Bw_util.Zipf
module Growable = Bw_util.Growable
module Key_codec = Bw_util.Key_codec
module Stats = Bw_util.Stats

let check = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_rng_bounds () =
  let r = Rng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let x = Rng.next_int r 17 in
    Alcotest.(check bool) "in bounds" true (x >= 0 && x < 17)
  done

let test_rng_float_range () =
  let r = Rng.create ~seed:9L in
  for _ = 1 to 10_000 do
    let x = Rng.next_float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:5L in
  let b = Rng.split a in
  let eq = ref 0 in
  for _ = 1 to 64 do
    if Rng.next_int64 a = Rng.next_int64 b then incr eq
  done;
  Alcotest.(check bool) "split streams diverge" true (!eq < 4)

let test_rng_invalid_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument
    "Rng.next_int: bound must be positive") (fun () ->
      ignore (Rng.next_int (Rng.create ~seed:1L) 0))

let test_shuffle_permutation () =
  let r = Rng.create ~seed:3L in
  let a = Array.init 100 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id)
    sorted

(* --- Zipf --- *)

let test_zipf_range () =
  let z = Zipf.create ~n:1000 () in
  let r = Rng.create ~seed:11L in
  for _ = 1 to 10_000 do
    let x = Zipf.sample z r in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 1000)
  done

let test_zipf_skew () =
  (* with theta=0.99, item 0 must be drawn far more often than uniform *)
  let n = 1000 in
  let z = Zipf.create ~n () in
  let r = Rng.create ~seed:13L in
  let hits = Array.make n 0 in
  let draws = 100_000 in
  for _ = 1 to draws do
    let x = Zipf.sample z r in
    hits.(x) <- hits.(x) + 1
  done;
  Alcotest.(check bool) "head is hot" true
    (hits.(0) > 10 * (draws / n));
  (* monotonically decreasing popularity, roughly *)
  Alcotest.(check bool) "rank 0 >= rank 100" true (hits.(0) >= hits.(100))

let test_zipf_scrambled_spread () =
  (* scrambling must move the hottest item away from a fixed position in
     most cases and keep values in range *)
  let n = 1000 in
  let z = Zipf.create ~n () in
  let r = Rng.create ~seed:17L in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 10_000 do
    let x = Zipf.sample_scrambled z r in
    Alcotest.(check bool) "in range" true (x >= 0 && x < n);
    Hashtbl.replace seen x ()
  done;
  Alcotest.(check bool) "many distinct values" true (Hashtbl.length seen > 50)

let test_zipf_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument
    "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ()))

(* --- Growable --- *)

let test_growable_push_get () =
  let g = Growable.create () in
  for i = 0 to 999 do
    Growable.push g i
  done;
  check "length" 1000 (Growable.length g);
  for i = 0 to 999 do
    check "get" i (Growable.get g i)
  done

let test_growable_insert_remove () =
  let g = Growable.of_array [| 1; 2; 4; 5 |] in
  Growable.insert_at g 2 3;
  Alcotest.(check (array int)) "insert middle" [| 1; 2; 3; 4; 5 |]
    (Growable.to_array g);
  Growable.insert_at g 0 0;
  Growable.insert_at g (Growable.length g) 6;
  Alcotest.(check (array int)) "insert ends" [| 0; 1; 2; 3; 4; 5; 6 |]
    (Growable.to_array g);
  Growable.remove_at g 0;
  Growable.remove_at g (Growable.length g - 1);
  Growable.remove_at g 2;
  Alcotest.(check (array int)) "removes" [| 1; 2; 4; 5 |]
    (Growable.to_array g)

let test_growable_truncate_pop () =
  let g = Growable.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check (option int)) "pop" (Some 4) (Growable.pop g);
  Growable.truncate g 2;
  Alcotest.(check (array int)) "truncated" [| 1; 2 |] (Growable.to_array g);
  Growable.truncate g 10;
  check "truncate beyond is noop" 2 (Growable.length g);
  Growable.clear g;
  check "cleared" 0 (Growable.length g);
  Alcotest.(check (option int)) "pop empty" None (Growable.pop g)

let test_growable_reset () =
  let g = Growable.create ~capacity:4 () in
  for cycle = 1 to 5 do
    (* steady-state fill/drain: every cycle refills from empty *)
    for i = 0 to 99 do
      Growable.push g (cycle * 1000 + i)
    done;
    check "filled" 100 (Growable.length g);
    check "last" (cycle * 1000 + 99) (Growable.get g 99);
    Growable.reset g;
    check "reset empties" 0 (Growable.length g)
  done;
  Alcotest.check_raises "reset bounds"
    (Invalid_argument "Growable: index out of bounds") (fun () ->
      ignore (Growable.get g 0))

let test_growable_sort_fold () =
  let g = Growable.of_array [| 3; 1; 2 |] in
  Growable.sort compare g;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 3 |] (Growable.to_array g);
  check "fold" 6 (Growable.fold_left ( + ) 0 g)

let test_growable_bounds () =
  let g = Growable.of_array [| 1 |] in
  Alcotest.check_raises "oob get"
    (Invalid_argument "Growable: index out of bounds") (fun () ->
      ignore (Growable.get g 1))

let prop_growable_model =
  (* a random sequence of push/insert/remove agrees with a list model *)
  QCheck.Test.make ~name:"growable agrees with list model" ~count:200
    QCheck.(list (pair (int_bound 2) small_int))
    (fun ops ->
      let g = Growable.create () in
      let model = ref [] in
      List.iter
        (fun (op, x) ->
          match op with
          | 0 ->
              Growable.push g x;
              model := !model @ [ x ]
          | 1 ->
              let n = Growable.length g in
              let pos = x mod (n + 1) in
              let pos = if pos < 0 then 0 else pos in
              Growable.insert_at g pos x;
              let rec ins i = function
                | rest when i = pos -> x :: rest
                | [] -> [ x ]
                | y :: rest -> y :: ins (i + 1) rest
              in
              model := ins 0 !model
          | _ ->
              if Growable.length g > 0 then begin
                let pos = abs x mod Growable.length g in
                Growable.remove_at g pos;
                model := List.filteri (fun i _ -> i <> pos) !model
              end)
        ops;
      Growable.to_array g = Array.of_list !model)

(* --- Arr --- *)

module Arr = Bw_util.Arr

let test_arr_stdlib_equiv () =
  (* equivalence with the stdlib constructors on both sides of the
     Max_young_wosize boundary (256) that motivates the module *)
  List.iter
    (fun n ->
      let src = Array.init n (fun i -> (i, string_of_int i)) in
      Alcotest.(check (array (pair int string)))
        "map" (Array.map Fun.id src) (Arr.map Fun.id src);
      Alcotest.(check (array (pair int string)))
        "init"
        (Array.init n (fun i -> (i, string_of_int i)))
        (Arr.init n (fun i -> (i, string_of_int i)));
      Alcotest.(check (array (pair int string)))
        "of_list" (Array.of_list (Array.to_list src))
        (Arr.of_list (Array.to_list src));
      Alcotest.(check (array (pair int string)))
        "make"
        (Array.make n (7, "x"))
        (Arr.make n (7, "x")))
    [ 0; 1; 17; 256; 257; 1000 ]

let test_arr_order () =
  (* map and init must visit indices left to right like the stdlib *)
  let visits = ref [] in
  ignore
    (Arr.map
       (fun i ->
         visits := i :: !visits;
         i)
       [| 10; 20; 30 |]);
  Alcotest.(check (list int)) "map order" [ 10; 20; 30 ] (List.rev !visits);
  visits := [];
  ignore
    (Arr.init 3 (fun i ->
         visits := i :: !visits;
         i));
  Alcotest.(check (list int)) "init order" [ 0; 1; 2 ] (List.rev !visits)

let test_arr_no_forced_minor () =
  (* the reason the module exists: constructing a >256-element array of
     young blocks must not force a minor collection per array *)
  let rounds = 100 in
  let burn mk =
    ignore (Sys.opaque_identity (mk ()));
    let before = (Gc.quick_stat ()).minor_collections in
    for _ = 1 to rounds do
      ignore (Sys.opaque_identity (mk ()))
    done;
    (Gc.quick_stat ()).minor_collections - before
  in
  let stdlib = burn (fun () -> Array.init 300 (fun i -> (i, i))) in
  let ours = burn (fun () -> Arr.init 300 (fun i -> (i, i))) in
  Alcotest.(check bool)
    (Printf.sprintf "stdlib forces ~1/array (%d), ours stays amortized (%d)"
       stdlib ours)
    true
    (stdlib >= rounds && ours < rounds / 2)

let test_growable_no_forced_minor () =
  (* Growable's grow/to_array/insert_at allocate through Arr.alloc, so a
     batch-sized gather of young tuples (the leaf consolidation path)
     must not force a minor collection per array either *)
  let rounds = 100 in
  let burn mk =
    ignore (Sys.opaque_identity (mk ()));
    let before = (Gc.quick_stat ()).minor_collections in
    for _ = 1 to rounds do
      ignore (Sys.opaque_identity (mk ()))
    done;
    (Gc.quick_stat ()).minor_collections - before
  in
  let ours =
    burn (fun () ->
        let g = Growable.create () in
        for i = 0 to 299 do
          Growable.push g (i, i)
        done;
        Growable.to_array g)
  in
  Alcotest.(check bool)
    (Printf.sprintf "grow + to_array stay amortized (%d)" ours)
    true
    (ours < rounds / 2)

(* --- Key_codec --- *)

let test_codec_roundtrip () =
  List.iter
    (fun k -> check "roundtrip" k (Key_codec.to_int (Key_codec.of_int k)))
    [ 0; 1; -1; max_int; min_int; 42; -4096; 1 lsl 40 ]

(* 8-byte slices outside the image of [of_int] are refused: before,
   [Int64.to_int] dropped bit 63, so the slices "\x00"x8 and
   "\x80\x00..." (and every pair differing only in the top bit of the
   flipped value) decoded to one key. *)
let test_codec_rejects_out_of_range () =
  let rejects name s =
    match Key_codec.to_int s with
    | k -> Alcotest.failf "%s: decoded to %d" name k
    | exception Invalid_argument _ -> ()
  in
  rejects "all-zero slice" (String.make 8 '\x00');
  rejects "all-ones slice" (String.make 8 '\xFF');
  rejects "just below enc(min_int)" ("\x3F" ^ String.make 7 '\xFF');
  rejects "just above enc(max_int)" ("\xC0" ^ String.make 7 '\x00');
  check "enc(0) still decodes" 0
    (Key_codec.to_int ("\x80" ^ String.make 7 '\x00'));
  check "enc(min_int) still decodes" min_int
    (Key_codec.to_int ("\x40" ^ String.make 7 '\x00'))

let prop_codec_canonical =
  QCheck.Test.make ~name:"to_int accepts exactly the encodings" ~count:2000
    QCheck.(string_of_size (Gen.return 8))
    (fun s ->
      match Key_codec.to_int s with
      | k -> String.equal (Key_codec.of_int k) s
      | exception Invalid_argument _ ->
          (* the top two bits of a valid slice are 01 or 10 *)
          let top = Char.code s.[0] lsr 6 in
          top = 0 || top = 3)

let prop_codec_order =
  QCheck.Test.make ~name:"int codec preserves order" ~count:1000
    QCheck.(pair int int)
    (fun (a, b) ->
      let ca = Key_codec.of_int a and cb = Key_codec.of_int b in
      compare (String.compare ca cb) 0 = compare (Int.compare a b) 0)

(* [int_at_least] must clamp to the 63-bit int range exactly like the
   shard partitioner's [floor_int]: a bound below every encoded int
   (e.g. "", shard 0's floor) starts at [min_int], one above
   enc(max_int) (e.g. a continuation cursor past the last int key)
   yields [None] — neither may wrap through [Int64.to_int]. *)
let test_int_at_least () =
  let some = Alcotest.(check (option int)) in
  some "empty bound floors to min_int" (Some min_int)
    (Key_codec.int_at_least "");
  some "low short bound floors to min_int" (Some min_int)
    (Key_codec.int_at_least "\x00\x01");
  some "exact encoding is its own floor" (Some 42)
    (Key_codec.int_at_least (Key_codec.of_int 42));
  some "negative exact encoding" (Some (-7))
    (Key_codec.int_at_least (Key_codec.of_int (-7)));
  some "long bound rounds up" (Some 43)
    (Key_codec.int_at_least (Key_codec.of_int 42 ^ "\x00"));
  some "max_int is reachable" (Some max_int)
    (Key_codec.int_at_least (Key_codec.of_int max_int));
  some "past max_int has no int" None
    (Key_codec.int_at_least (Key_codec.of_int max_int ^ "\x00"));
  some "all-ones bound has no int" None
    (Key_codec.int_at_least (String.make 9 '\xFF'));
  some "top half of the slice space has no int" None
    (Key_codec.int_at_least "\xC0")

let prop_int_at_least_floor =
  QCheck.Test.make ~name:"int_at_least is the exact floor" ~count:1000
    QCheck.(pair (small_list (int_bound 255)) int)
    (fun (bytes, k) ->
      let s = String.init (List.length bytes) (fun i ->
          Char.chr (List.nth bytes i)) in
      let enc = Key_codec.of_int k in
      match Key_codec.int_at_least s with
      | Some f ->
          (* f's encoding sorts at or above s, and no smaller int's does *)
          String.compare (Key_codec.of_int f) s >= 0
          && (String.compare enc s >= 0 = (k >= f))
      | None -> String.compare enc s < 0)

let test_slice64 () =
  let s = "\x01\x02\x03\x04\x05\x06\x07\x08\xFF" in
  Alcotest.(check int64) "first slice" 0x0102030405060708L
    (Key_codec.slice64 s 0);
  Alcotest.(check int64) "padded slice" 0xFF00000000000000L
    (Key_codec.slice64 s 1);
  check "slice count" 2 (Key_codec.slice_count s);
  check "empty has one slice" 1 (Key_codec.slice_count "")

(* --- Stats --- *)

let test_stats_basics () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  checkf "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |]);
  checkf "p100" 4.0 (Stats.percentile [| 4.0; 1.0; 2.0; 3.0 |] 100.0);
  checkf "throughput" 2.0 (Stats.throughput_mops ~ops:2_000_000 ~seconds:1.0)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0 |] in
  checkf "min" 1.0 s.min;
  checkf "max" 3.0 s.max;
  check "n" 3 s.n

(* --- Padded --- *)

module Pd = Bw_util.Padded

(* Every cell's line has a full line of padding before it and after it,
   inside the array: at least 64 bytes between any two cells' words and
   between a cell and either end of the block. *)
let test_padded_layout () =
  check "a 64-byte line" 8 Pd.line_words;
  for n = 1 to 6 do
    let a = Pd.make n 0 in
    check "cells" n (Pd.cells a);
    check "length" (Pd.length n) (Array.length a);
    Alcotest.(check bool) "padding before the first cell" true
      (Pd.index 0 >= Pd.line_words);
    for c = 0 to n - 2 do
      Alcotest.(check bool) "a line between two cells" true
        (Pd.index (c + 1) - (Pd.index c + Pd.line_words) >= Pd.line_words)
    done;
    Alcotest.(check bool) "padding after the last cell" true
      (Array.length a - (Pd.index (n - 1) + Pd.line_words) >= Pd.line_words)
  done

(* The atomic accessors touch the word they name and nothing else. *)
let test_padded_atomics () =
  let n = 4 in
  let a = Pd.make n 7 in
  for c = 0 to n - 1 do
    check "index" (Pd.first + (Pd.stride * c)) (Pd.index c);
    Pd.set a (Pd.index c) (100 + c);
    check "fetch_and_add returns the old value" (100 + c)
      (Pd.fetch_and_add a (Pd.index c) 5)
  done;
  Array.iteri
    (fun i v ->
      let expect = ref 7 in
      for c = 0 to n - 1 do
        if i = Pd.index c then expect := 105 + c
      done;
      check (Printf.sprintf "word %d" i) !expect v)
    a;
  for c = 0 to n - 1 do
    check "get" (105 + c) (Pd.get a (Pd.index c))
  done

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "invalid bound" `Quick test_rng_invalid_bound;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "scrambled" `Quick test_zipf_scrambled_spread;
          Alcotest.test_case "invalid" `Quick test_zipf_invalid;
        ] );
      ( "growable",
        [
          Alcotest.test_case "push/get" `Quick test_growable_push_get;
          Alcotest.test_case "insert/remove" `Quick test_growable_insert_remove;
          Alcotest.test_case "truncate/pop" `Quick test_growable_truncate_pop;
          Alcotest.test_case "reset" `Quick test_growable_reset;
          Alcotest.test_case "sort/fold" `Quick test_growable_sort_fold;
          Alcotest.test_case "bounds" `Quick test_growable_bounds;
          Alcotest.test_case "no forced minor GC" `Quick
            test_growable_no_forced_minor;
          q prop_growable_model;
        ] );
      ( "padded",
        [
          Alcotest.test_case "layout" `Quick test_padded_layout;
          Alcotest.test_case "atomics" `Quick test_padded_atomics;
        ] );
      ( "arr",
        [
          Alcotest.test_case "stdlib equivalence" `Quick test_arr_stdlib_equiv;
          Alcotest.test_case "traversal order" `Quick test_arr_order;
          Alcotest.test_case "no forced minor GC" `Quick
            test_arr_no_forced_minor;
        ] );
      ( "key_codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects out-of-range slices" `Quick
            test_codec_rejects_out_of_range;
          q prop_codec_canonical;
          q prop_codec_order;
          Alcotest.test_case "int_at_least clamps" `Quick test_int_at_least;
          q prop_int_at_least_floor;
          Alcotest.test_case "slice64" `Quick test_slice64;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
    ]
