(* Property tests for leaf pages against a reference model: build /
   lower_bound / iter_from must agree with the sorted item array, the
   merge with a sequential-replay oracle, and the on-disk encoding must
   round-trip byte-identically, match golden bytes, and reject every
   malformed payload with [Failure] only. *)

module LP = Bwtree.Leaf_page.Make (Index_iface.Int_key) (Index_iface.Int_value)
module LPS =
  Bwtree.Leaf_page.Make (Index_iface.String_key) (Index_iface.Int_value)

let q = QCheck_alcotest.to_alcotest

(* ---- generators ---- *)

(* small key space so duplicate keys, adjacent probes and delta/base
   collisions are frequent *)
let items_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 400) (pair (int_bound 60) (int_bound 5)))

let sorted_items kvs =
  Array.of_list (List.stable_sort (fun (a, _) (b, _) -> compare a b) kvs)

(* short strings over a 2-letter alphabet: prefixes of each other, empty
   strings, and shared 8-byte words are all common *)
let str_key_gen =
  QCheck.Gen.(
    int_range 0 10 >>= fun len ->
    string_size ~gen:(oneofl [ 'a'; 'b' ]) (return len))

let str_items_of_size max =
  QCheck.(
    list_of_size (Gen.int_range 0 max)
      (pair (make ~print:Print.string str_key_gen) (int_bound 5)))

let str_items_gen = str_items_of_size 200

(* ---- build / search / iterate against the item array ---- *)

(* reference lower bound over [items.(lo..hi-1)] *)
let ref_lb_in items k ~lo ~hi =
  let i = ref lo in
  while !i < hi && fst items.(!i) < k do
    incr i
  done;
  !i

let ref_lb items k = ref_lb_in items k ~lo:0 ~hi:(Array.length items)

let iter_list iter_from page pos =
  let seen = ref [] in
  iter_from page pos (fun k v -> seen := (k, v) :: !seen);
  List.rev !seen

let suffix items pos =
  Array.to_list (Array.sub items pos (Array.length items - pos))

let prop_build_model =
  QCheck.Test.make ~name:"build/search/iterate match the item array"
    ~count:300 items_gen (fun kvs ->
      let items = sorted_items kvs in
      let p = LP.build items in
      let n = Array.length items in
      assert (LP.length p = n);
      for i = 0 to n - 1 do
        assert (LP.get p i = items.(i))
      done;
      assert (LP.keys p = Array.map fst items);
      assert (LP.values p = Array.map snd items);
      for k = -1 to 62 do
        assert (LP.lower_bound p k = ref_lb items k)
      done;
      (* restricted ranges too (the §4.4 shortcut) *)
      for k = 0 to 60 do
        let lo = min (k mod 7) n and hi = n - min (k mod 3) n in
        if lo <= hi then
          assert (LP.lower_bound_in p k ~lo ~hi = ref_lb_in items k ~lo ~hi)
      done;
      List.iter
        (fun pos -> assert (iter_list LP.iter_from p pos = suffix items pos))
        [ 0; n / 3; n ];
      LP.slice p = items)

let prop_build_model_str =
  QCheck.Test.make ~name:"build/search/iterate match the item array (string keys)"
    ~count:300 str_items_gen (fun kvs ->
      let items = sorted_items kvs in
      let p = LPS.build items in
      let n = Array.length items in
      assert (LPS.length p = n);
      let probes =
        [ ""; "a"; "b"; "ab"; "ba"; "aaaa"; "aaaaaaaa"; "aaaaaaaab";
          "bbbbbbbbbb" ]
        @ List.map fst kvs
      in
      List.iter (fun k -> assert (LPS.lower_bound p k = ref_lb items k)) probes;
      List.iter
        (fun pos -> assert (iter_list LPS.iter_from p pos = suffix items pos))
        [ 0; n / 2; n ];
      LPS.slice p = items)

(* ---- merge oracle ---- *)

(* Sequential replay, oldest op first: an insert adds a pair, a delete
   removes one exact occurrence (no-op when absent — it refers to nothing
   visible), an update rewrites one occurrence of (k, old) to (k, new).
   This is the multiset semantics the merge's newest-first pending-delete
   walk must reproduce. *)
let oracle base ops_oldest_first =
  let remove_one st k v =
    let rec go = function
      | [] -> (false, [])
      | (k', v') :: rest when k' = k && v' = v -> (true, rest)
      | x :: rest ->
          let hit, rest' = go rest in
          (hit, x :: rest')
    in
    go st
  in
  let st =
    List.fold_left
      (fun st op ->
        match op with
        | LP.Ins (k, v) -> (k, v) :: st
        | LP.Del (k, v) -> snd (remove_one st k v)
        | LP.Upd (k, vold, vnew) ->
            let hit, st' = remove_one st k vold in
            if hit then (k, vnew) :: st' else (k, vnew) :: st)
      (Array.to_list base) ops_oldest_first
  in
  List.sort compare st

let delta_gen =
  QCheck.(
    list_of_size (Gen.int_range 0 24)
      (triple (int_bound 3) (int_bound 60) (pair (int_bound 5) (int_bound 5))))

let to_delta (sel, k, (v1, v2)) =
  match sel with
  | 0 | 3 -> LP.Ins (k, v1)
  | 1 -> LP.Del (k, v1)
  | _ -> LP.Upd (k, v1, v2)

let sortedness page =
  let ok = ref true in
  for i = 1 to LP.length page - 1 do
    if fst (LP.get page (i - 1)) > fst (LP.get page i) then ok := false
  done;
  !ok

let prop_merge_equiv =
  QCheck.Test.make ~name:"merge_with_deltas == replay oracle" ~count:500
    QCheck.(pair items_gen delta_gen)
    (fun (kvs, raw) ->
      let items = sorted_items kvs in
      let ops_oldest_first = List.map to_delta raw in
      (* the merge takes the chain newest-first, as the tree walks it *)
      let chain = List.rev ops_oldest_first in
      let base = LP.build items in
      let m, searches = LP.merge_with_deltas base chain in
      assert (sortedness m);
      (* at most one base search per delete the chain carries *)
      assert (
        searches
        <= List.length
             (List.filter
                (function LP.Del _ | LP.Upd _ -> true | LP.Ins _ -> false)
                chain));
      assert (
        List.sort compare (Array.to_list (LP.slice m))
        = oracle items ops_oldest_first);
      (* the merged page searches like its own item array, and the base
         is left untouched *)
      let out = LP.slice m in
      for k = -1 to 62 do
        assert (LP.lower_bound m k = ref_lb out k)
      done;
      LP.slice base = items)

(* ---- serialization ---- *)

let venc buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* bounds-checked like [Pagestore.Codec]: a short payload is a [Failure] *)
let vdec payload pos =
  if !pos + 8 > String.length payload then failwith "vdec: truncated";
  let v = Int64.to_int (String.get_int64_le payload !pos) in
  pos := !pos + 8;
  v

let enc page =
  let buf = Buffer.create 256 in
  LP.encode buf venc page;
  Buffer.contents buf

let enc_s page =
  let buf = Buffer.create 256 in
  LPS.encode buf venc page;
  Buffer.contents buf

let dec e =
  let pos = ref 0 in
  let d = LP.decode e ~pos ~value:(fun () -> vdec e pos) in
  assert (!pos = String.length e);
  d

let dec_s e =
  let pos = ref 0 in
  let d = LPS.decode e ~pos ~value:(fun () -> vdec e pos) in
  assert (!pos = String.length e);
  d

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"encode/decode round-trips byte-identically"
    ~count:300
    QCheck.(pair items_gen delta_gen)
    (fun (kvs, raw) ->
      let items = sorted_items kvs in
      (* every construction path: a fresh build, a merge and the empty
         page *)
      let base = LP.build items in
      let merged, _ = LP.merge_with_deltas base (List.rev_map to_delta raw) in
      List.for_all
        (fun page ->
          let e1 = enc page in
          let d = dec e1 in
          assert (LP.slice d = LP.slice page);
          enc d = e1)
        [ base; merged; LP.empty ])

let prop_codec_roundtrip_str =
  QCheck.Test.make ~name:"encode/decode round-trips (string keys)"
    ~count:300 str_items_gen (fun kvs ->
      let page = LPS.build (sorted_items kvs) in
      let e1 = enc_s page in
      let d = dec_s e1 in
      assert (LPS.slice d = LPS.slice page);
      enc_s d = e1)

(* Encodings written by the packed-arena page representation, which this
   one replaced: the on-disk format must not move, so existing data
   directories and checkpoint pages stay readable. *)
let golden_int =
  "\x04\x00\x00\x00\x00\x00\x00\x00\x01\x7f\xff\xff\xff\xff\xff\xff\xfb\x80\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x07\x80\x00\x01\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00"

let golden_int_items = [| (-5, 1); (0, 2); (7, 3); (1 lsl 40, 4) |]

let golden_str =
  "\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x0b\x00\x00\x00\x00\x00\x00\x00\x61\x61\x62\x63\x68\x65\x6c\x6c\x6f\x20\x77\x6f\x72\x6c\x64\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00"

let golden_str_items = [| ("", 1); ("a", 2); ("abc", 3); ("hello world", 4) |]

let test_golden () =
  Alcotest.(check string) "fixed8 int page" golden_int
    (enc (LP.build golden_int_items));
  Alcotest.(check bool) "int page decodes" true
    (LP.slice (dec golden_int) = golden_int_items);
  Alcotest.(check string) "variable-length string page" golden_str
    (enc_s (LPS.build golden_str_items));
  Alcotest.(check bool) "string page decodes" true
    (LPS.slice (dec_s golden_str) = golden_str_items);
  Alcotest.(check string) "empty page" "\000\000\000\000\000\000\000\000\000"
    (enc LP.empty)

let i64 v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Bytes.to_string b

let test_decode_malformed () =
  let e = enc (LP.build [| (1, 10); (2, 20) |]) in
  List.iter
    (fun payload ->
      match
        LP.decode payload ~pos:(ref 0) ~value:(fun () -> 0)
      with
      | _ -> Alcotest.fail "malformed payload accepted"
      | exception Failure _ -> ())
    [
      "";
      String.sub e 0 4;
      (* item count beyond the payload *)
      "\255\255\255\255\255\255\255\255" ^ String.make 16 'x';
      (* bad flag byte *)
      (let b = Bytes.of_string e in
       Bytes.set b 8 '\042';
       Bytes.to_string b);
      (* an int key slice that is not 8 bytes: [K.of_binary] raises
         [Invalid_argument], which must surface as [Failure] so the
         store falls back to an older generation *)
      i64 1 ^ "\000" ^ i64 3 ^ "abc";
    ]

(* A count or key-length field outside the 63-bit int range is refused:
   it used to lose bit 63, so a flip of that bit decoded silently to the
   original page. *)
let test_decode_out_of_range () =
  let flip_top e ~field =
    let b = Bytes.of_string e in
    let at = field + 7 in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lor 0x80));
    Bytes.to_string b
  in
  let rejects name decode payload =
    match decode payload with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Failure _ -> ()
  in
  rejects "int page, item count"
    (fun p -> LP.decode p ~pos:(ref 0) ~value:(fun () -> 0))
    (flip_top (enc (LP.build [| (1, 10) |])) ~field:0);
  (* a string page: count, flag byte, then the key-length table *)
  rejects "string page, key length"
    (fun p -> LPS.decode p ~pos:(ref 0) ~value:(fun () -> 0))
    (flip_top (enc_s (LPS.build [| ("abc", 1) |])) ~field:9)

(* ---- decoder fuzzing ---- *)

(* [decode] on a mutated real encoding must return a page or raise
   [Failure]; any other exception escapes and fails the property. *)
let survives decode payload =
  match decode payload with _ -> () | exception Failure _ -> ()

let mutations ~fixed8 ~n e flips =
  let plen = String.length e in
  let with_i64 off v =
    if off + 8 > plen then e
    else begin
      let b = Bytes.of_string e in
      Bytes.set_int64_le b off (Int64.of_int v);
      Bytes.to_string b
    end
  in
  let truncations = List.init plen (fun l -> String.sub e 0 l) in
  let byte_flips =
    List.map
      (fun (pos, byte) ->
        let b = Bytes.of_string e in
        if plen > 0 then Bytes.set b (pos mod plen) (Char.chr byte);
        Bytes.to_string b)
      flips
  in
  (* the count at 0, and (unless fixed8) the length table from 9 *)
  let fields = 0 :: (if fixed8 then [] else List.init n (fun i -> 9 + (8 * i))) in
  let overwrites =
    List.concat_map
      (fun off ->
        List.map (with_i64 off) [ 0; -1; max_int; plen + 1 ])
      fields
  in
  truncations @ byte_flips @ overwrites

let flips_gen = QCheck.(list_of_size (Gen.int_range 0 32) (pair small_nat (int_bound 255)))

let fuzz_items_gen =
  QCheck.(list_of_size (Gen.int_range 0 40) (pair (int_bound 60) (int_bound 5)))

let prop_fuzz_decode =
  QCheck.Test.make ~name:"decode of a mutated int page raises only Failure"
    ~count:200
    QCheck.(pair fuzz_items_gen flips_gen)
    (fun (kvs, flips) ->
      let page = LP.build (sorted_items kvs) in
      let e = enc page in
      List.iter
        (survives (fun p ->
             let pos = ref 0 in
             LP.decode p ~pos ~value:(fun () -> vdec p pos)))
        (mutations ~fixed8:(LP.length page > 0) ~n:(LP.length page) e flips);
      true)

let prop_fuzz_decode_str =
  QCheck.Test.make ~name:"decode of a mutated string page raises only Failure"
    ~count:200
    (QCheck.pair (str_items_of_size 40) flips_gen)
    (fun (kvs, flips) ->
      let page = LPS.build (sorted_items kvs) in
      let e = enc_s page in
      let fixed8 = String.length e > 8 && e.[8] = '\001' in
      List.iter
        (survives (fun p ->
             let pos = ref 0 in
             LPS.decode p ~pos ~value:(fun () -> vdec p pos)))
        (mutations ~fixed8 ~n:(LPS.length page) e flips);
      true)

(* ---- footprint ---- *)

(* A page is its two arrays and nothing else: a 128-int-key page must
   stay within 2 words per key plus headers, so no second copy of the
   keys can return unnoticed. *)
let test_footprint () =
  let items = Array.init 128 (fun i -> (i * 2, i)) in
  let bound = (2 * 128) + 16 in
  let words p = Obj.reachable_words (Obj.repr p) in
  let built = LP.build items in
  Alcotest.(check bool) "built page" true (words built <= bound);
  Alcotest.(check bool) "decoded page" true (words (dec (enc built)) <= bound);
  let merged, _ =
    LP.merge_with_deltas (LP.build (Array.sub items 0 127)) [ LP.Ins (1000, 0) ]
  in
  Alcotest.(check bool) "merged page" true (words merged <= bound)

(* ---- the key modules' search kernels ---- *)

(* linear-scan references over [a.(lo..hi-1)] *)
let linear_bound ~strict cmp a k ~lo ~hi =
  let i = ref lo in
  while !i < hi && (if strict then cmp a.(!i) k <= 0 else cmp a.(!i) k < 0) do
    incr i
  done;
  !i

(* Each kernel must return the linear scan's index over the drawn
   [lo, hi) range, the full range and an empty range. The sorted keys
   repeat often (small key space); probes fall inside, between and
   outside them. *)
let kernels_agree cmp lower upper (keys, probe, (x, y)) =
  let a = Array.of_list (List.sort cmp keys) in
  let n = Array.length a in
  let x = x mod (n + 1) and y = y mod (n + 1) in
  List.for_all
    (fun (lo, hi) ->
      lower a probe ~lo ~hi = linear_bound ~strict:false cmp a probe ~lo ~hi
      && upper a probe ~lo ~hi = linear_bound ~strict:true cmp a probe ~lo ~hi)
    [ (min x y, max x y); (0, n); (x, x) ]

let prop_int_kernels =
  QCheck.Test.make ~name:"int kernels == linear scan" ~count:1000
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 80) (int_range (-20) 20))
        (oneof [ int_range (-22) 22; always min_int; always max_int ])
        (pair small_nat small_nat))
    (kernels_agree Int.compare Index_iface.Int_key.lower_bound_in
       Index_iface.Int_key.upper_bound_in)

let prop_string_kernels =
  QCheck.Test.make ~name:"string kernels == linear scan" ~count:1000
    QCheck.(
      triple
        (list_of_size (Gen.int_range 0 60)
           (make ~print:Print.string str_key_gen))
        (make ~print:Print.string str_key_gen)
        (pair small_nat small_nat))
    (kernels_agree String.compare Index_iface.String_key.lower_bound_in
       Index_iface.String_key.upper_bound_in)

let test_search_cost () =
  Alcotest.(check int) "0" 0 (LP.search_cost_n 0);
  Alcotest.(check int) "1" 1 (LP.search_cost_n 1);
  Alcotest.(check int) "2" 2 (LP.search_cost_n 2);
  Alcotest.(check int) "128" 8 (LP.search_cost_n 128);
  Alcotest.(check int) "255" 8 (LP.search_cost_n 255);
  let page = LP.build (Array.init 100 (fun i -> (i, i))) in
  Alcotest.(check int) "page" (LP.search_cost_n 100) (LP.search_cost page)

let () =
  Alcotest.run "leaf_page"
    [
      ( "model",
        [ q prop_build_model; q prop_build_model_str; q prop_merge_equiv ] );
      ( "codec",
        [
          q prop_codec_roundtrip;
          q prop_codec_roundtrip_str;
          Alcotest.test_case "golden encodings" `Quick test_golden;
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_decode_malformed;
          Alcotest.test_case "out-of-range int fields rejected" `Quick
            test_decode_out_of_range;
          q prop_fuzz_decode;
          q prop_fuzz_decode_str;
        ] );
      ("kernels", [ q prop_int_kernels; q prop_string_kernels ]);
      ( "policy",
        [
          Alcotest.test_case "footprint" `Quick test_footprint;
          Alcotest.test_case "search cost" `Quick test_search_cost;
        ] );
    ]
