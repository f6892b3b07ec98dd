(* Small-scale test of the benchmark itself: every workload, untraced and
   traced, must end its output with a result line carrying every metric
   BENCHMARK.json names for that mode, as a finite number with its unit;
   and a planted fault (an acknowledged insert that is never applied)
   must show up as failed ops and a nonzero exit code. *)

module Json = Bw_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("selftest: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse what s =
  match Json.parse s with Ok v -> v | Error e -> fail "%s: bad JSON: %s" what e

let field what k v =
  match Json.member k v with Some x -> x | None -> fail "%s: no %S" what k

let str = function Json.Str s -> s | _ -> fail "expected a string"

let num what = function
  | Json.Int i -> float_of_int i
  | Json.Float f when Float.is_finite f -> f
  | _ -> fail "%s: not a finite number" what

(* (name, unit) of every metric in one BENCHMARK.json section *)
let declared bench section =
  match field "BENCHMARK.json" section bench with
  | Json.Arr ms ->
      List.map (fun m -> (str (field section "name" m), str (field section "unit" m))) ms
  | _ -> fail "BENCHMARK.json: %s is not a list" section

let run args =
  let argv = Array.of_list ("./perfbench.exe" :: args) in
  let ic = Unix.open_process_args_in argv.(0) argv in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc
  in
  let out = lines [] in
  let code =
    match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> -1
  in
  match out with
  | last :: _ -> (code, parse (String.concat " " args) last)
  | [] -> fail "%s: no output" (String.concat " " args)

let bench_args w trace =
  [ "--workload"; w; "--seed"; "7"; "--seconds"; "1"; "--trace"; trace; "--small";
    "--dir"; "selftest-run" ]

let () =
  let bench = parse "BENCHMARK.json" (read_file "../BENCHMARK.json") in
  let workloads =
    match field "BENCHMARK.json" "workloads" bench with
    | Json.Arr ws -> List.map (fun w -> str (field "workloads" "name" w)) ws
    | _ -> fail "BENCHMARK.json: workloads is not a list"
  in
  List.iter
    (fun w ->
      List.iter
        (fun (trace, section) ->
          let what = Printf.sprintf "%s --trace %s" w trace in
          let code, res = run (bench_args w trace) in
          if code <> 0 then fail "%s: exit code %d" what code;
          if field what "correct" res <> Json.Bool true then fail "%s: not correct" what;
          if num what (field what "failed" res) <> 0. then fail "%s: failed ops" what;
          if num what (field what "attempted" res) < 1. then fail "%s: nothing attempted" what;
          let metrics = field what "metrics" res in
          List.iter
            (fun (name, unit_) ->
              let m = field what name metrics in
              ignore (num (what ^ " " ^ name) (field what "value" m));
              if str (field what "unit" m) <> unit_ then fail "%s: %s has the wrong unit" what name)
            (declared bench section))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    workloads;
  let code, res = run (bench_args "ycsb-e-served" "0" @ [ "--fault"; "drop-insert" ]) in
  if code = 0 then fail "planted fault: exit code 0";
  if num "fault" (field "fault" "failed" res) < 1. then fail "planted fault: no failed ops";
  if field "fault" "correct" res <> Json.Bool false then fail "planted fault: reported correct";
  print_endline "selftest: ok"
