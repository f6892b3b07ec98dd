(* CI validator for --metrics-json output: parses the snapshot with the
   repo's own JSON parser (no jq dependency) and checks the schema and
   the acceptance-level content — per-op latency percentiles, epoch
   pending/reclaim stats and at least three structural event kinds.

   Usage: json_check FILE
   Exits non-zero with a message on the first violation. *)

module J = Bw_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("json_check: " ^ m); exit 1) fmt

let get k v =
  match J.member k v with
  | Some x -> x
  | None -> fail "missing field %S" k

let as_int k = function
  | J.Int i -> i
  | _ -> fail "field %S is not an integer" k

let as_obj k = function
  | J.Obj kvs -> kvs
  | _ -> fail "field %S is not an object" k

let () =
  let file =
    match Sys.argv with
    | [| _; f |] -> f
    | _ ->
        prerr_endline "usage: json_check FILE";
        exit 2
  in
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let v =
    match J.parse body with
    | Ok v -> v
    | Error e -> fail "%s does not parse: %s" file e
  in
  (match get "elapsed_s" v with
  | J.Float f when f >= 0.0 -> ()
  | J.Int i when i >= 0 -> ()
  | _ -> fail "elapsed_s is not a non-negative number");
  (* histograms: at least one latency series with coherent percentiles *)
  let histos =
    match get "histograms" v with
    | J.Arr hs -> hs
    | _ -> fail "histograms is not an array"
  in
  if histos = [] then fail "no histograms recorded";
  let lat_series = ref 0 in
  List.iter
    (fun h ->
      let name = match get "name" h with J.Str s -> s | _ -> fail "histogram name not a string" in
      let unit_ = match get "unit" h with J.Str s -> s | _ -> fail "histogram unit not a string" in
      let i k = as_int k (get k h) in
      let count = i "count" and p50 = i "p50" and p90 = i "p90" and p99 = i "p99" in
      let mn = i "min" and mx = i "max" in
      ignore (i "sum");
      if count <= 0 then fail "histogram %s has count %d" name count;
      if not (mn <= mx) then fail "histogram %s: min %d > max %d" name mn mx;
      if not (p50 <= p90 && p90 <= p99) then
        fail "histogram %s: percentiles not monotone (%d, %d, %d)" name p50 p90 p99;
      if p99 > 0 && mx < p50 then
        fail "histogram %s: max %d below p50 %d" name mx p50;
      if unit_ = "ns" then incr lat_series)
    histos;
  if !lat_series = 0 then fail "no latency (ns) histogram present";
  (* epoch stats: reclaim counter and pending/watermark gauges *)
  let counters = as_obj "counters" (get "counters" v) in
  List.iter
    (fun k ->
      if not (List.mem_assoc k counters) then fail "counter %S missing" k)
    [
      "splits"; "consolidations"; "reclaim_batches"; "mt_growths";
      "batch_redescents"; "leaf_gap_reuses";
      "leaf_probe_cmps"; "read_consolidations";
    ];
  let gauges = as_obj "gauges" (get "gauges" v) in
  List.iter
    (fun k ->
      if not (List.mem_assoc k gauges) then fail "gauge %S missing" k)
    [ "epoch_pending"; "epoch_watermark_lag"; "mt_chunks" ];
  (* events: dropped counter, >= 3 structural kinds, well-formed log *)
  let events = get "events" v in
  if as_int "dropped" (get "dropped" events) < 0 then fail "negative drop count";
  let kinds = as_obj "kinds" (get "kinds" events) in
  let live_kinds = List.filter (fun (_, n) -> as_int "kind" n > 0) kinds in
  if List.length live_kinds < 3 then
    fail "only %d structural event kind(s) recorded (need >= 3): %s"
      (List.length live_kinds)
      (String.concat ", " (List.map fst live_kinds));
  (match get "log" events with
  | J.Arr log ->
      List.iter
        (fun e ->
          ignore (as_int "ns" (get "ns" e));
          ignore (get "kind" e))
        log
  | _ -> fail "events.log is not an array");
  Printf.printf "json_check: %s ok (%d histograms, %d event kinds)\n" file
    (List.length histos) (List.length live_kinds)
